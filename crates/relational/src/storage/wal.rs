//! Redo-record schema for the relational store.
//!
//! Every catalog/heap mutation is described by one [`RelOp`] encoded into
//! an opaque byte payload for `crosse-wal` (channel [`crosse_wal::CHAN_REL`]).
//! Records are *physical-ish* redo: DML carries materialised rows and heap
//! positions (never predicates or expressions), so replay is deterministic
//! regardless of planner or evaluation changes.

use crosse_wal::{Decoder, Encoder};

use crate::error::{Error, Result};
use crate::schema::Column;
use crate::value::{DataType, Interner, Row, Value};

use super::Catalog;

const OP_CREATE_TABLE: u8 = 1;
const OP_DROP_TABLE: u8 = 2;
const OP_CREATE_INDEX: u8 = 3;
const OP_DROP_INDEX: u8 = 4;
const OP_INSERT: u8 = 5;
const OP_DELETE: u8 = 6;
const OP_UPDATE: u8 = 7;
const OP_TRUNCATE: u8 = 8;

/// One loggable mutation, borrowing the caller's data (encoding never
/// clones rows).
#[derive(Debug)]
pub enum RelOp<'a> {
    CreateTable { name: &'a str, columns: &'a [Column], replace: bool },
    DropTable { name: &'a str },
    CreateIndex { table: &'a str, index: &'a str, column: &'a str },
    DropIndex { index: &'a str },
    /// One batch of validated rows appended to `table`. A multi-row
    /// statement is ONE record: recovery replays it all-or-nothing, so a
    /// torn tail can never expose a partial batch.
    Insert { table: &'a str, rows: &'a [Row] },
    /// Rows removed by ascending heap position.
    Delete { table: &'a str, positions: &'a [usize] },
    /// Materialised `(position, new row)` overwrites.
    Update { table: &'a str, changes: &'a [(usize, Row)] },
    Truncate { table: &'a str },
}

/// Serialise an op to its log payload.
pub fn encode_rel_op(op: &RelOp<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    match op {
        RelOp::CreateTable { name, columns, replace } => {
            e.u8(OP_CREATE_TABLE);
            e.str(name);
            e.u8(u8::from(*replace));
            e.u32(columns.len() as u32);
            for c in *columns {
                encode_column(&mut e, c);
            }
        }
        RelOp::DropTable { name } => {
            e.u8(OP_DROP_TABLE);
            e.str(name);
        }
        RelOp::CreateIndex { table, index, column } => {
            e.u8(OP_CREATE_INDEX);
            e.str(table);
            e.str(index);
            e.str(column);
        }
        RelOp::DropIndex { index } => {
            e.u8(OP_DROP_INDEX);
            e.str(index);
        }
        RelOp::Insert { table, rows } => {
            e.u8(OP_INSERT);
            e.str(table);
            e.u32(rows.len() as u32);
            for row in *rows {
                encode_row(&mut e, row);
            }
        }
        RelOp::Delete { table, positions } => {
            e.u8(OP_DELETE);
            e.str(table);
            e.u32(positions.len() as u32);
            for p in *positions {
                e.u64(*p as u64);
            }
        }
        RelOp::Update { table, changes } => {
            e.u8(OP_UPDATE);
            e.str(table);
            e.u32(changes.len() as u32);
            for (pos, row) in *changes {
                e.u64(*pos as u64);
                encode_row(&mut e, row);
            }
        }
        RelOp::Truncate { table } => {
            e.u8(OP_TRUNCATE);
            e.str(table);
        }
    }
    e.into_vec()
}

/// Decode one payload and apply it to `catalog` **without re-logging** —
/// this is the replay path; no log is attached to a recovering catalog.
/// DML runs the same mutation step on the locked heap that the logged
/// write ran after logging (`Table::append` / `remove` / `overwrite` /
/// `clear`), so indexes come out exactly as the write left them. Text
/// values are interned through `interner`, so recovered rows share
/// allocations exactly like freshly loaded ones.
pub fn apply_rel_op(catalog: &Catalog, payload: &[u8], interner: &Interner) -> Result<()> {
    let mut d = Decoder::new(payload);
    let tag = d.u8().map_err(Error::from)?;
    match tag {
        OP_CREATE_TABLE => {
            let name = d.str().map_err(Error::from)?;
            let replace = d.u8().map_err(Error::from)? != 0;
            let n = d.u32().map_err(Error::from)?;
            let mut columns = Vec::with_capacity(n as usize);
            for _ in 0..n {
                columns.push(decode_column(&mut d)?);
            }
            d.finish().map_err(Error::from)?;
            if replace {
                catalog.create_or_replace_table(&name, columns)?;
            } else {
                catalog.create_table(&name, columns)?;
            }
        }
        OP_DROP_TABLE => {
            let name = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            catalog.drop_table(&name)?;
        }
        OP_CREATE_INDEX => {
            let table = d.str().map_err(Error::from)?;
            let index = d.str().map_err(Error::from)?;
            let column = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            catalog.create_index(&index, &table, &column)?;
        }
        OP_DROP_INDEX => {
            let index = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            catalog.drop_index(&index)?;
        }
        OP_INSERT => {
            let table = d.str().map_err(Error::from)?;
            let n = d.u32().map_err(Error::from)?;
            let mut rows = Vec::with_capacity(n as usize);
            for _ in 0..n {
                rows.push(decode_row(&mut d, interner)?);
            }
            d.finish().map_err(Error::from)?;
            let t = catalog.get_table(&table)?;
            t.append(&mut t.rows.write(), rows);
        }
        OP_DELETE => {
            let table = d.str().map_err(Error::from)?;
            let n = d.u32().map_err(Error::from)?;
            let mut positions = Vec::with_capacity(n as usize);
            for _ in 0..n {
                positions.push(d.u64().map_err(Error::from)? as usize);
            }
            d.finish().map_err(Error::from)?;
            let t = catalog.get_table(&table)?;
            let mut heap = t.rows.write();
            check_positions(&table, positions.iter().copied(), heap.len())?;
            t.remove(&mut heap, &positions);
        }
        OP_UPDATE => {
            let table = d.str().map_err(Error::from)?;
            let n = d.u32().map_err(Error::from)?;
            let mut changes = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let pos = d.u64().map_err(Error::from)? as usize;
                changes.push((pos, decode_row(&mut d, interner)?));
            }
            d.finish().map_err(Error::from)?;
            let t = catalog.get_table(&table)?;
            let mut heap = t.rows.write();
            check_positions(&table, changes.iter().map(|(pos, _)| *pos), heap.len())?;
            t.overwrite(&mut heap, changes);
        }
        OP_TRUNCATE => {
            let table = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            let t = catalog.get_table(&table)?;
            t.clear(&mut t.rows.write());
        }
        other => {
            return Err(Error::storage(format!(
                "unknown relational redo op tag {other}"
            )))
        }
    }
    Ok(())
}

/// The heap positions of a Delete or Update record ascend strictly and lie
/// inside the heap, as they did when the write was logged; a record that
/// breaks this does not belong to the catalog it is replayed into.
fn check_positions(table: &str, positions: impl Iterator<Item = usize>, len: usize) -> Result<()> {
    let mut next = 0;
    for p in positions {
        if p < next || p >= len {
            return Err(Error::storage(format!(
                "redo record for `{table}` names row {p}, out of order or past its {len} rows"
            )));
        }
        next = p + 1;
    }
    Ok(())
}

// ---- field codecs ---------------------------------------------------------

fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
    }
}

fn data_type_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        other => return Err(Error::storage(format!("unknown data type tag {other}"))),
    })
}

pub(crate) fn encode_column(e: &mut Encoder, c: &Column) {
    match &c.qualifier {
        Some(q) => {
            e.u8(1);
            e.str(q);
        }
        None => e.u8(0),
    }
    e.str(&c.name);
    e.u8(data_type_tag(c.data_type));
    e.u8(u8::from(c.nullable));
}

pub(crate) fn decode_column(d: &mut Decoder<'_>) -> Result<Column> {
    let qualifier = match d.u8().map_err(Error::from)? {
        0 => None,
        _ => Some(d.str().map_err(Error::from)?),
    };
    let name = d.str().map_err(Error::from)?;
    let data_type = data_type_from_tag(d.u8().map_err(Error::from)?)?;
    let nullable = d.u8().map_err(Error::from)? != 0;
    Ok(Column { qualifier, name, data_type, nullable })
}

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;

pub(crate) fn encode_value(e: &mut Encoder, v: &Value) {
    match v {
        Value::Null => e.u8(VAL_NULL),
        Value::Bool(b) => {
            e.u8(VAL_BOOL);
            e.u8(u8::from(*b));
        }
        Value::Int(i) => {
            e.u8(VAL_INT);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(VAL_FLOAT);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(VAL_STR);
            e.str(s.as_str());
        }
    }
}

pub(crate) fn decode_value(d: &mut Decoder<'_>, interner: &Interner) -> Result<Value> {
    Ok(match d.u8().map_err(Error::from)? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(d.u8().map_err(Error::from)? != 0),
        VAL_INT => Value::Int(d.i64().map_err(Error::from)?),
        VAL_FLOAT => Value::Float(d.f64().map_err(Error::from)?),
        VAL_STR => Value::Str(interner.intern_owned(d.str().map_err(Error::from)?)),
        other => return Err(Error::storage(format!("unknown value tag {other}"))),
    })
}

pub(crate) fn encode_row(e: &mut Encoder, row: &Row) {
    e.u32(row.len() as u32);
    for v in row {
        encode_value(e, v);
    }
}

pub(crate) fn decode_row(d: &mut Decoder<'_>, interner: &Interner) -> Result<Row> {
    let n = d.u32().map_err(Error::from)?;
    let mut row = Vec::with_capacity(n as usize);
    for _ in 0..n {
        row.push(decode_value(d, interner)?);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;
    use crosse_wal::{RedoLog, WalOptions, WalStore, CHAN_REL};
    use std::ops::Bound;

    fn cols() -> Vec<Column> {
        vec![
            Column::new("name", DataType::Text),
            Column::new("tons", DataType::Float),
        ]
    }

    #[test]
    fn ddl_roundtrip_through_apply() {
        let src = Catalog::new();
        let dst = Catalog::new();
        let ops = [
            encode_rel_op(&RelOp::CreateTable { name: "landfill", columns: &cols(), replace: false }),
            encode_rel_op(&RelOp::CreateIndex { table: "landfill", index: "idx_n", column: "name" }),
        ];
        drop(src);
        for op in &ops {
            apply_rel_op(&dst, op, &Interner::new()).unwrap();
        }
        assert!(dst.has_table("landfill"));
        assert!(dst.has_index("idx_n"));

        apply_rel_op(&dst, &encode_rel_op(&RelOp::DropIndex { index: "idx_n" }), &Interner::new()).unwrap();
        assert!(!dst.has_index("idx_n"));
        apply_rel_op(&dst, &encode_rel_op(&RelOp::DropTable { name: "landfill" }), &Interner::new())
            .unwrap();
        assert!(!dst.has_table("landfill"));
    }

    #[test]
    fn dml_roundtrip_replays_identically() {
        let dst = Catalog::new();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "t", columns: &cols(), replace: false }),
            &Interner::new(),
        )
        .unwrap();
        let rows = vec![row!["a", 1.0], row!["b", 2.0], row!["c", 3.0]];
        apply_rel_op(&dst, &encode_rel_op(&RelOp::Insert { table: "t", rows: &rows }), &Interner::new())
            .unwrap();
        let changes = vec![(1usize, row!["B", 20.0])];
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::Update { table: "t", changes: &changes }),
            &Interner::new(),
        )
        .unwrap();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::Delete { table: "t", positions: &[0] }),
            &Interner::new(),
        )
        .unwrap();
        let t = dst.get_table("t").unwrap();
        assert_eq!(t.snapshot().rows(), [row!["B", 20.0], row!["c", 3.0]]);
        apply_rel_op(&dst, &encode_rel_op(&RelOp::Truncate { table: "t" }), &Interner::new()).unwrap();
        assert_eq!(t.row_count(), 0);

        // Logged writes on an indexed table, read back from the log and
        // replayed into a fresh catalog: the same rows and the same index
        // hits as the writes left.
        let dir = std::env::temp_dir()
            .join(format!("crosse-relwal-{}-dml-roundtrip", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = WalStore::open(&dir, WalOptions::default()).unwrap();
        let src = Catalog::new();
        src.attach_sink(RedoLog::new(wal, CHAN_REL));
        src.create_table("t", cols()).unwrap();
        src.create_index("t_name", "t", "name").unwrap();
        let t = src.get_table("t").unwrap();
        t.insert_many(vec![row!["a", 1.0], row!["b", 2.0], row!["a", 3.0], row!["c", 4.0]])
            .unwrap();
        // Both `a` rows move to `b`, and `c` to NULL.
        t.update_where(|r| {
            let name = match r[0].lexical_form().as_str() {
                "a" => Value::from("b"),
                "c" => Value::Null,
                _ => return Ok(None),
            };
            Ok(Some(vec![name, r[1].clone()]))
        })
        .unwrap();
        t.delete_where(|r| Ok(r[1] == Value::Float(2.0))).unwrap();
        t.insert_many(vec![row!["a", 5.0]]).unwrap();
        let (_, recovered) = WalStore::open(&dir, WalOptions::default()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let replayed = Catalog::new();
        for record in &recovered.records {
            apply_rel_op(&replayed, &record.payload, &Interner::new()).unwrap();
        }
        let seen = |cat: &Catalog| {
            let t = cat.get_table("t").unwrap();
            let rows = |hits: crate::storage::IndexHits| -> Vec<Row> {
                (0..hits.len()).map(|i| hits[i].clone()).collect()
            };
            let eq: Vec<Vec<Row>> = ["a", "b", "c"]
                .map(|k| rows(t.index_lookup_eq(0, &[Value::from(k)]).unwrap()))
                .into();
            let upto_b = Value::from("b");
            let range = rows(
                t.index_lookup_range(0, Bound::Unbounded, Bound::Included(&upto_b)).unwrap(),
            );
            (t.snapshot().rows().to_vec(), eq, range)
        };
        let logged = seen(&src);
        let null_c = vec![Value::Null, Value::Float(4.0)];
        assert_eq!(logged.0, [row!["b", 1.0], row!["b", 3.0], null_c, row!["a", 5.0]]);
        let (a, b) = (vec![row!["a", 5.0]], vec![row!["b", 1.0], row!["b", 3.0]]);
        assert_eq!(logged.1, [a, b, vec![]]);
        assert_eq!(logged.2.len(), 3);
        assert_eq!(seen(&replayed), logged);
    }

    #[test]
    fn replay_rejects_positions_the_heap_does_not_hold() {
        let dst = Catalog::new();
        dst.create_table("t", cols()).unwrap();
        dst.get_table("t").unwrap().insert_many(vec![row!["a", 1.0], row!["b", 2.0]]).unwrap();
        let changes = [(2usize, row!["c", 3.0])];
        for record in [
            encode_rel_op(&RelOp::Delete { table: "t", positions: &[1, 0] }),
            encode_rel_op(&RelOp::Delete { table: "t", positions: &[2] }),
            encode_rel_op(&RelOp::Update { table: "t", changes: &changes }),
        ] {
            let err = apply_rel_op(&dst, &record, &Interner::new()).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
        }
        let rows = dst.get_table("t").unwrap().snapshot();
        assert_eq!(rows.rows(), [row!["a", 1.0], row!["b", 2.0]]);
    }

    #[test]
    fn all_value_kinds_roundtrip() {
        let dst = Catalog::new();
        let columns = vec![
            Column::new("b", DataType::Bool),
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("s", DataType::Text),
        ];
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "v", columns: &columns, replace: false }),
            &Interner::new(),
        )
        .unwrap();
        let rows = vec![
            vec![Value::Bool(true), Value::Int(-7), Value::Float(2.5), Value::from("héllo")],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ];
        apply_rel_op(&dst, &encode_rel_op(&RelOp::Insert { table: "v", rows: &rows }), &Interner::new())
            .unwrap();
        assert_eq!(dst.get_table("v").unwrap().snapshot().rows(), rows);
    }

    #[test]
    fn interner_shares_recovered_strings() {
        let dst = Catalog::new();
        let interner = Interner::new();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "t", columns: &cols(), replace: false }),
            &interner,
        )
        .unwrap();
        let rows = vec![row!["Torino", 1.0], row!["Torino", 2.0]];
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::Insert { table: "t", rows: &rows }),
            &interner,
        )
        .unwrap();
        let got = dst.get_table("t").unwrap().snapshot().rows().to_vec();
        let (Value::Str(a), Value::Str(b)) = (&got[0][0], &got[1][0]) else {
            panic!("expected strings");
        };
        assert!(crate::value::Str::ptr_eq(a, b), "recovered duplicates share one allocation");
    }

    #[test]
    fn truncated_payload_is_typed_error() {
        let rows = vec![row!["a", 1.0]];
        let payload = encode_rel_op(&RelOp::Insert { table: "t", rows: &rows });
        let dst = Catalog::new();
        dst.create_table("t", cols()).unwrap();
        for cut in [1, 3, payload.len() - 2] {
            let err = apply_rel_op(&dst, &payload[..cut], &Interner::new()).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
        }
        // Unknown op tag.
        let err = apply_rel_op(&dst, &[99], &Interner::new()).unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn create_or_replace_flag_respected_on_replay() {
        let dst = Catalog::new();
        dst.create_table("t", cols()).unwrap();
        dst.get_table("t").unwrap().insert_many(vec![row!["x", 1.0]]).unwrap();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "t", columns: &cols(), replace: true }),
            &Interner::new(),
        )
        .unwrap();
        assert_eq!(dst.get_table("t").unwrap().row_count(), 0);
    }
}
