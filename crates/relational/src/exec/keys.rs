//! Coded keys for the hash operators that see one key per *input* row —
//! DISTINCT, deduplicating UNION and the GROUP BY index.
//!
//! A [`KeyCoder`] turns a tuple of values into a [`Key`] of a few machine
//! words that is equal exactly when the tuples are equal under `Value`'s
//! grouping semantics (see `Value::group_eq`), so the operator's hash
//! table stores and hashes words instead of cloned rows and string bytes.
//! NULL, booleans and numbers are packed by value — every number through
//! its `f64` bit pattern, which is what makes `1` and `1.0` one key and a
//! NaN a stable one. A string becomes a small integer code, local to the
//! coder, found by the address of its allocation; only an address not seen
//! before pays for a lookup by content, which is what makes two equal
//! strings from different allocations one key. See `DESIGN.md`, "Value as
//! its own key".

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::value::{Str, Value};

use super::fasthash::FastBuild;

/// Words of a key held without a heap allocation: room for three strings,
/// or a number and a string.
const INLINE_WORDS: usize = 2;

/// Addresses the coder remembers before any has been seen twice; beyond
/// that the table grows only with the lookups it answers (see
/// [`KeyCoder::by_addr`]).
const ADDR_SLACK: usize = 64;

/// A coded key: its values back to back as a bit string, each a two-bit
/// class (which keeps NULL, `FALSE`, `0.0` and string 0 apart and tells
/// how long the value is) followed by the value — nothing for NULL, one
/// bit for a boolean, 32 for a string code, 64 for a number. All keys of
/// one coder have the same number of values, so two keys are the same bit
/// string exactly when they agree value by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Key {
    Inline([u64; INLINE_WORDS]),
    Wide(Box<[u64]>),
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let words: &[u64] = match self {
            Key::Inline(w) => w,
            Key::Wide(w) => w,
        };
        for w in words {
            state.write_u64(*w);
        }
    }
}

/// The bit string of a key under construction. The tail is touched (and
/// allocated) only by a key that outgrows the inline words.
#[derive(Default)]
struct KeyBits {
    head: [u64; INLINE_WORDS],
    tail: Vec<u64>,
    len: usize,
}

impl KeyBits {
    /// Append the low `bits` bits of `value` (which has no higher ones).
    fn push(&mut self, value: u64, bits: usize) {
        if bits == 0 {
            return;
        }
        let (word, at) = (self.len / 64, self.len % 64);
        *self.word(word) |= value << at;
        if at + bits > 64 {
            *self.word(word + 1) |= value >> (64 - at);
        }
        self.len += bits;
    }

    fn word(&mut self, i: usize) -> &mut u64 {
        match i.checked_sub(INLINE_WORDS) {
            None => &mut self.head[i],
            Some(j) => {
                if j == self.tail.len() {
                    self.tail.push(0);
                }
                &mut self.tail[j]
            }
        }
    }

    fn finish(self) -> Key {
        if self.tail.is_empty() {
            Key::Inline(self.head)
        } else {
            Key::Wide(self.head.into_iter().chain(self.tail).collect())
        }
    }
}

/// Codes the keys of one operator (all of one width). Empty, it owns no
/// heap memory.
#[derive(Debug)]
pub(crate) struct KeyCoder {
    width: usize,
    /// Allocation address → string code. The entry keeps a clone of the
    /// string, so the address cannot be freed and handed to a different
    /// string while it is a key here. Remembering an address pays only if
    /// it comes again — it does in join output, where one stored cell is
    /// repeated in many rows, and never in a scan of cells allocated one by
    /// one or of strings computed per row — so the table may hold at most
    /// `ADDR_SLACK` plus twice the lookups it has answered; other
    /// addresses are coded by content each time, which is always correct.
    by_addr: HashMap<usize, (u32, Str), FastBuild>,
    addr_hits: usize,
    /// Content → string code, consulted when the address is not known.
    by_text: HashMap<Str, u32, FastBuild>,
}

impl KeyCoder {
    pub(crate) fn new(width: usize) -> KeyCoder {
        KeyCoder {
            width,
            by_addr: HashMap::default(),
            addr_hits: 0,
            by_text: HashMap::default(),
        }
    }

    /// The key of `values`, which must number the coder's width.
    pub(crate) fn key<V: Borrow<Value>>(
        &mut self,
        values: impl IntoIterator<Item = Result<V>>,
    ) -> Result<Key> {
        let mut key = KeyBits::default();
        let mut coded = 0;
        for v in values {
            let v = v?;
            let (class, value, bits) = match v.borrow() {
                Value::Null => (0, 0, 0),
                Value::Bool(b) => (1, u64::from(*b), 1),
                Value::Int(i) => (2, (*i as f64).to_bits(), 64),
                Value::Float(f) => (2, f.to_bits(), 64),
                Value::Str(s) => (3, u64::from(self.string_code(s)?), 32),
            };
            key.push(class, 2);
            key.push(value, bits);
            coded += 1;
        }
        if coded != self.width {
            return Err(Error::eval(format!(
                "key of {coded} values in an operator of width {}",
                self.width
            )));
        }
        Ok(key.finish())
    }

    fn string_code(&mut self, s: &Str) -> Result<u32> {
        let addr = s.addr();
        if let Some((code, _)) = self.by_addr.get(&addr) {
            self.addr_hits += 1;
            return Ok(*code);
        }
        let code = match self.by_text.get(s.as_str()) {
            Some(&code) => code,
            None => {
                let code = u32::try_from(self.by_text.len())
                    .map_err(|_| Error::eval("more than 2^32 distinct strings in one operator"))?;
                self.by_text.insert(s.clone(), code);
                code
            }
        };
        if self.by_addr.len() < ADDR_SLACK + 2 * self.addr_hits {
            self.by_addr.insert(addr, (code, s.clone()));
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(coder: &mut KeyCoder, values: &[Value]) -> Key {
        coder.key(values.iter().map(Ok)).unwrap()
    }

    #[test]
    fn keys_follow_grouping_equality() {
        let mut c = KeyCoder::new(1);
        let k = |c: &mut KeyCoder, v: Value| key(c, &[v]);
        assert_eq!(k(&mut c, Value::Int(1)), k(&mut c, Value::Float(1.0)));
        assert_eq!(
            k(&mut c, Value::Float(f64::NAN)),
            k(&mut c, Value::Float(f64::NAN))
        );
        assert_eq!(k(&mut c, Value::Null), k(&mut c, Value::Null));
        // Equal content from two allocations is one key; "" is a string.
        assert_eq!(k(&mut c, Value::from("Hg")), k(&mut c, Value::from("Hg")));
        assert_eq!(k(&mut c, Value::from("")), k(&mut c, Value::from("")));
        // One representative per class whose value bits are all zero (a
        // fresh coder's first string gets code 0).
        let zeros = [
            Value::Null,
            Value::Bool(false),
            Value::Float(0.0),
            Value::from("first"),
        ];
        let mut c = KeyCoder::new(1);
        let keys: Vec<Key> = zeros.iter().map(|v| k(&mut c, v.clone())).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a == b, i == j, "{:?} vs {:?}", zeros[i], zeros[j]);
            }
        }
        assert_ne!(k(&mut c, Value::Float(0.0)), k(&mut c, Value::Float(-0.0)));
        assert_ne!(k(&mut c, Value::Bool(true)), k(&mut c, Value::Int(1)));
    }

    #[test]
    fn wide_keys_spill_and_still_compare_by_value() {
        let row = |last: i64| -> Vec<Value> {
            vec![
                Value::Int(1),
                Value::from("a"),
                Value::Float(2.5),
                Value::Null,
                Value::Int(last),
            ]
        };
        let mut c = KeyCoder::new(5);
        let (a, b, other) = (
            key(&mut c, &row(7)),
            key(&mut c, &row(7)),
            key(&mut c, &row(8)),
        );
        assert!(matches!(a, Key::Wide(_)));
        assert_eq!(a, b);
        assert_ne!(a, other);
        // Three strings fit the inline words.
        let mut c = KeyCoder::new(3);
        let names = [Value::from("x"), Value::from("y"), Value::from("x")];
        assert!(matches!(key(&mut c, &names), Key::Inline(_)));
        // Values moving between positions change the key.
        let mut c = KeyCoder::new(2);
        assert_ne!(
            key(&mut c, &[Value::Null, Value::Int(3)]),
            key(&mut c, &[Value::Int(3), Value::Null])
        );
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let mut c = KeyCoder::new(2);
        assert!(c.key([Value::Int(1)].iter().map(Ok)).is_err());
        assert!(c
            .key([Value::Int(1), Value::Int(2), Value::Int(3)].iter().map(Ok))
            .is_err());
    }

    #[test]
    fn an_empty_coder_owns_no_heap_memory() {
        let mut c = KeyCoder::new(2);
        key(&mut c, &[Value::Int(1), Value::Null]);
        assert_eq!(c.by_addr.capacity() + c.by_text.capacity(), 0);
    }

    /// The address-reuse hazard: a coded address must not come to mean a
    /// different string. The coder pins what it remembers, so the
    /// allocator cannot hand the address out again; were it not pinned,
    /// the freed slot is the first candidate for the next string of the
    /// same size, which would then be coded as the old one.
    #[test]
    fn a_coded_address_is_never_reused_for_another_string() {
        let mut c = KeyCoder::new(1);
        for round in 0..ADDR_SLACK / 2 {
            let old = Str::from(format!("old-{round:04}"));
            let addr = old.addr();
            let old_key = key(&mut c, &[Value::Str(old.clone())]);
            assert!(
                c.by_addr.contains_key(&addr),
                "round {round}: address remembered"
            );
            drop(old);
            let new = Str::from(format!("new-{round:04}"));
            assert_ne!(
                new.addr(),
                addr,
                "round {round}: pinned address handed out again"
            );
            assert_ne!(key(&mut c, &[Value::Str(new)]), old_key);
        }
    }

    #[test]
    fn addresses_seen_once_are_not_accumulated() {
        // A scan of individually allocated cells: no address repeats, so
        // the table stays at its slack while every key is still right.
        let mut c = KeyCoder::new(1);
        let cells: Vec<Value> = (0..1000)
            .map(|i| Value::from(format!("c{}", i % 10)))
            .collect();
        let keys: std::collections::HashSet<Key> = cells
            .iter()
            .map(|v| key(&mut c, std::slice::from_ref(v)))
            .collect();
        assert_eq!(keys.len(), 10);
        assert!(
            c.by_addr.len() <= ADDR_SLACK,
            "{} addresses kept",
            c.by_addr.len()
        );
        // Join output: the same cells over and over are all remembered.
        let mut c = KeyCoder::new(1);
        for _ in 0..5 {
            for v in &cells {
                key(&mut c, std::slice::from_ref(v));
            }
        }
        assert_eq!(c.by_addr.len(), cells.len());
    }
}
