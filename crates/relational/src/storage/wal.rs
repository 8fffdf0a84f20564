//! Redo-record schema for the relational store.
//!
//! Every catalog/heap mutation is described by one [`RelOp`] encoded into
//! an opaque byte payload for `crosse-wal` (channel [`crosse_wal::CHAN_REL`]).
//! Records are *physical-ish* redo: DML carries materialised rows and heap
//! positions (never predicates or expressions), so replay is deterministic
//! regardless of planner or evaluation changes.

use parking_lot::RwLock;

use crosse_wal::{Decoder, Encoder};

use crate::error::{Error, Result};
use crate::schema::Column;
use crate::value::{DataType, Interner, Row, Value};

use super::Catalog;

/// Where redo records go. Implemented over a `crosse_wal::WalStore` by
/// [`super::durable::WalRedoSink`]; the indirection keeps the storage layer
/// testable without touching a filesystem.
pub trait RedoSink: Send + Sync + std::fmt::Debug {
    /// The append/checkpoint barrier. Mutators hold the read side across
    /// their whole log-then-apply critical section (see
    /// `storage::sink_guard`).
    fn barrier(&self) -> &RwLock<()>;

    /// Append one encoded [`RelOp`] to the log *without* forcing it to
    /// disk. An error here fails the statement *before* it touches the
    /// heap.
    fn log(&self, payload: &[u8]) -> Result<()>;

    /// Make previously logged records durable per the sink's sync policy.
    /// Mutators call this *after* releasing their heap locks, so no
    /// engine lock is ever held across an fsync (the lock-order tracker
    /// flags exactly that). An error means the mutation is applied in
    /// memory but its durability is not yet guaranteed — callers surface
    /// it like any other statement failure.
    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

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
/// this is the replay path; no sink is attached to a recovering catalog.
/// Text values are interned through `interner` when given, so recovered
/// rows share allocations exactly like freshly loaded ones.
pub fn apply_rel_op(
    catalog: &Catalog,
    payload: &[u8],
    interner: Option<&Interner>,
) -> Result<()> {
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
            catalog.get_table(&table)?.apply_insert(rows);
        }
        OP_DELETE => {
            let table = d.str().map_err(Error::from)?;
            let n = d.u32().map_err(Error::from)?;
            let mut positions = Vec::with_capacity(n as usize);
            for _ in 0..n {
                positions.push(d.u64().map_err(Error::from)? as usize);
            }
            d.finish().map_err(Error::from)?;
            catalog.get_table(&table)?.apply_delete(&positions);
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
            catalog.get_table(&table)?.apply_update(changes);
        }
        OP_TRUNCATE => {
            let table = d.str().map_err(Error::from)?;
            d.finish().map_err(Error::from)?;
            catalog.get_table(&table)?.truncate()?;
        }
        other => {
            return Err(Error::storage(format!(
                "unknown relational redo op tag {other}"
            )))
        }
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

pub(crate) fn decode_value(
    d: &mut Decoder<'_>,
    interner: Option<&Interner>,
) -> Result<Value> {
    Ok(match d.u8().map_err(Error::from)? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(d.u8().map_err(Error::from)? != 0),
        VAL_INT => Value::Int(d.i64().map_err(Error::from)?),
        VAL_FLOAT => Value::Float(d.f64().map_err(Error::from)?),
        VAL_STR => {
            let s = d.str().map_err(Error::from)?;
            match interner {
                Some(i) => Value::Str(i.intern_owned(s)),
                None => Value::from(s),
            }
        }
        other => return Err(Error::storage(format!("unknown value tag {other}"))),
    })
}

pub(crate) fn encode_row(e: &mut Encoder, row: &Row) {
    e.u32(row.len() as u32);
    for v in row {
        encode_value(e, v);
    }
}

pub(crate) fn decode_row(d: &mut Decoder<'_>, interner: Option<&Interner>) -> Result<Row> {
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
            apply_rel_op(&dst, op, None).unwrap();
        }
        assert!(dst.has_table("landfill"));
        assert!(dst.has_index("idx_n"));

        apply_rel_op(&dst, &encode_rel_op(&RelOp::DropIndex { index: "idx_n" }), None).unwrap();
        assert!(!dst.has_index("idx_n"));
        apply_rel_op(&dst, &encode_rel_op(&RelOp::DropTable { name: "landfill" }), None)
            .unwrap();
        assert!(!dst.has_table("landfill"));
    }

    #[test]
    fn dml_roundtrip_replays_identically() {
        let dst = Catalog::new();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "t", columns: &cols(), replace: false }),
            None,
        )
        .unwrap();
        let rows = vec![row!["a", 1.0], row!["b", 2.0], row!["c", 3.0]];
        apply_rel_op(&dst, &encode_rel_op(&RelOp::Insert { table: "t", rows: &rows }), None)
            .unwrap();
        let changes = vec![(1usize, row!["B", 20.0])];
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::Update { table: "t", changes: &changes }),
            None,
        )
        .unwrap();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::Delete { table: "t", positions: &[0] }),
            None,
        )
        .unwrap();
        let t = dst.get_table("t").unwrap();
        let got = t.scan();
        assert_eq!(got, vec![row!["B", 20.0], row!["c", 3.0]]);
        apply_rel_op(&dst, &encode_rel_op(&RelOp::Truncate { table: "t" }), None).unwrap();
        assert_eq!(t.row_count(), 0);
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
            None,
        )
        .unwrap();
        let rows = vec![
            vec![Value::Bool(true), Value::Int(-7), Value::Float(2.5), Value::from("héllo")],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ];
        apply_rel_op(&dst, &encode_rel_op(&RelOp::Insert { table: "v", rows: &rows }), None)
            .unwrap();
        assert_eq!(dst.get_table("v").unwrap().scan(), rows);
    }

    #[test]
    fn interner_shares_recovered_strings() {
        let dst = Catalog::new();
        let interner = Interner::new();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "t", columns: &cols(), replace: false }),
            Some(&interner),
        )
        .unwrap();
        let rows = vec![row!["Torino", 1.0], row!["Torino", 2.0]];
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::Insert { table: "t", rows: &rows }),
            Some(&interner),
        )
        .unwrap();
        let got = dst.get_table("t").unwrap().scan();
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
            let err = apply_rel_op(&dst, &payload[..cut], None).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "{err}");
        }
        // Unknown op tag.
        let err = apply_rel_op(&dst, &[99], None).unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn create_or_replace_flag_respected_on_replay() {
        let dst = Catalog::new();
        dst.create_table("t", cols()).unwrap();
        dst.get_table("t").unwrap().insert(row!["x", 1.0]).unwrap();
        apply_rel_op(
            &dst,
            &encode_rel_op(&RelOp::CreateTable { name: "t", columns: &cols(), replace: true }),
            None,
        )
        .unwrap();
        assert_eq!(dst.get_table("t").unwrap().row_count(), 0);
    }
}
