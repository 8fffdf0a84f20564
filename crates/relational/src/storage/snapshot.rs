//! Checkpoint snapshots of the relational catalog.
//!
//! A snapshot is taken in two phases so writers are stalled only for the
//! cheap part: [`pin_catalog`] runs under the checkpoint barrier and only
//! clones `Arc`s (schemas, pinned heaps), then [`encode_catalog`]
//! serialises the pinned state on the checkpointer's background thread
//! while traffic proceeds. Ephemeral (federation-registered) tables are
//! skipped — recovery re-registers them from their source.

use crosse_wal::{Decoder, Encoder};

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Interner;

use super::wal::{decode_column, decode_row, encode_column, encode_row};
use super::{Catalog, TableSnapshot};

/// One table frozen at checkpoint time. Holding this pins the heap's
/// `Arc` — writers copy-on-write around it.
#[derive(Debug)]
pub struct TablePin {
    /// Original-case table name (the catalog key is lower-cased).
    pub name: String,
    pub schema: Schema,
    pub rows: TableSnapshot,
    /// `(index name, column name)` pairs, in creation order.
    pub indexes: Vec<(String, String)>,
}

/// Every durable table of a catalog, frozen at one barrier point.
#[derive(Debug)]
pub struct CatalogPin {
    pub tables: Vec<TablePin>,
}

/// Freeze the catalog. Cheap — `Arc` clones only, no row copies — and
/// meant to run under the checkpoint barrier (writers excluded), so the
/// pin is a consistent cross-table cut.
pub fn pin_catalog(catalog: &Catalog) -> CatalogPin {
    let mut tables = Vec::new();
    for table in catalog.tables() {
        if table.is_ephemeral() {
            continue;
        }
        tables.push(TablePin {
            name: table.name.clone(),
            schema: table.schema.clone(),
            rows: table.snapshot(),
            indexes: table.index_names(),
        });
    }
    CatalogPin { tables }
}

/// Serialise a pinned catalog to one snapshot section body. Runs off the
/// hot path (checkpoint background thread).
pub fn encode_catalog(pin: &CatalogPin) -> Vec<u8> {
    let mut e = Encoder::with_capacity(4096);
    e.u32(pin.tables.len() as u32);
    for t in &pin.tables {
        e.str(&t.name);
        e.u32(t.schema.columns.len() as u32);
        for c in &t.schema.columns {
            encode_column(&mut e, c);
        }
        e.u32(t.indexes.len() as u32);
        for (index, column) in &t.indexes {
            e.str(index);
            e.str(column);
        }
        e.u64(t.rows.len() as u64);
        for row in t.rows.rows() {
            encode_row(&mut e, row);
        }
    }
    e.into_vec()
}

/// Rebuild a catalog from an encoded snapshot section. The catalog must
/// be fresh (no log attached, no tables) — this is the first step of
/// recovery, before the log tail is replayed.
pub fn decode_catalog(catalog: &Catalog, bytes: &[u8], interner: &Interner) -> Result<()> {
    let mut d = Decoder::new(bytes);
    let ntables = d.u32().map_err(Error::from)?;
    for _ in 0..ntables {
        let name = d.str().map_err(Error::from)?;
        let ncols = d.u32().map_err(Error::from)?;
        let mut columns = Vec::with_capacity(ncols as usize);
        for _ in 0..ncols {
            columns.push(decode_column(&mut d)?);
        }
        let nidx = d.u32().map_err(Error::from)?;
        let mut indexes = Vec::with_capacity(nidx as usize);
        for _ in 0..nidx {
            let index = d.str().map_err(Error::from)?;
            let column = d.str().map_err(Error::from)?;
            indexes.push((index, column));
        }
        let nrows = d.u64().map_err(Error::from)?;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20) as usize);
        for _ in 0..nrows {
            rows.push(decode_row(&mut d, interner)?);
        }
        let table = catalog.create_table(&name, columns)?;
        table.append(&mut table.rows.write(), rows);
        for (index, column) in indexes {
            catalog.create_index(&index, &name, &column)?;
        }
    }
    d.finish().map_err(Error::from)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn seed() -> Catalog {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "Landfill",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("tons", DataType::Float),
                ],
            )
            .unwrap();
        t.insert_many(vec![row!["a", 1.0], row!["b", 2.0]]).unwrap();
        cat.create_index("idx_name", "Landfill", "name").unwrap();
        cat.create_table("empty", vec![Column::new("x", DataType::Int)]).unwrap();
        cat
    }

    #[test]
    fn pin_encode_decode_roundtrip() {
        let cat = seed();
        let bytes = encode_catalog(&pin_catalog(&cat));
        let restored = Catalog::new();
        decode_catalog(&restored, &bytes, &Interner::new()).unwrap();
        assert!(restored.has_table("landfill"));
        assert!(restored.has_table("empty"));
        assert!(restored.has_index("idx_name"));
        let t = restored.get_table("landfill").unwrap();
        assert_eq!(t.name, "Landfill", "original case preserved");
        assert_eq!(t.snapshot().rows(), [row!["a", 1.0], row!["b", 2.0]]);
        // The restored index works.
        let col = t.schema.resolve(None, "name").unwrap();
        assert_eq!(t.index_lookup_eq(col, &[Value::from("b")]).unwrap().len(), 1);
    }

    #[test]
    fn ephemeral_tables_excluded() {
        let cat = seed();
        let remote = crate::Database::new();
        remote.execute("CREATE TABLE t (x INT)").unwrap();
        let foreign = crate::foreign::Foreign {
            source: std::sync::Arc::new(crate::foreign::LocalSource::new("src", remote)),
            table: "t".into(),
        };
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        cat.add_foreign_tables(vec![crate::storage::Table::new_foreign("foreign".into(), schema, foreign)])
            .unwrap();
        assert!(cat.has_table("foreign"));
        let pin = pin_catalog(&cat);
        assert!(pin.tables.iter().all(|t| !t.name.eq_ignore_ascii_case("foreign")));
        let restored = Catalog::new();
        decode_catalog(&restored, &encode_catalog(&pin), &Interner::new()).unwrap();
        assert!(!restored.has_table("foreign"));
    }

    #[test]
    fn pin_is_frozen_against_later_writes() {
        let cat = seed();
        let pin = pin_catalog(&cat);
        cat.get_table("landfill").unwrap().insert_many(vec![row!["c", 3.0]]).unwrap();
        let restored = Catalog::new();
        decode_catalog(&restored, &encode_catalog(&pin), &Interner::new()).unwrap();
        assert_eq!(restored.get_table("landfill").unwrap().row_count(), 2);
    }

    #[test]
    fn corrupt_snapshot_bytes_are_typed_errors() {
        let cat = seed();
        let bytes = encode_catalog(&pin_catalog(&cat));
        for cut in [1usize, 7, bytes.len() - 3] {
            let restored = Catalog::new();
            let err = decode_catalog(&restored, &bytes[..cut], &Interner::new()).unwrap_err();
            assert!(matches!(err, crate::error::Error::Storage(_)), "{err}");
        }
    }
}
