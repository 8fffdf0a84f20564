//! Order-independent multiset digest of a result: every row hashes to one
//! 64-bit word and the words are summed, so two results agree exactly when
//! they hold the same rows the same number of times, in any order.

use crosse_relational::Value;

/// Row count plus the wrapping sum of the row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64's finaliser: spreads the FNV word so that summing row
/// hashes does not let small differences cancel.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn row_hash(row: &[Value]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in row {
        // The tag keeps 1, 1.0, '1' and TRUE apart; 0x1f ends the cell.
        let tag = match v {
            Value::Null => b'n',
            Value::Bool(_) => b'b',
            Value::Int(_) => b'i',
            Value::Float(_) => b'f',
            Value::Str(_) => b's',
        };
        h = fnv(h, &[tag]);
        h = fnv(h, v.lexical().as_bytes());
        h = fnv(h, &[0x1f]);
    }
    mix(h)
}

pub fn digest<R: AsRef<[Value]>>(rows: &[R]) -> Digest {
    let sum = rows
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r.as_ref())));
    Digest {
        rows: rows.len() as u64,
        sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::from("Fe"), Value::Int(3)],
            vec![Value::from("Cu"), Value::Float(2.5)],
            vec![Value::from("Fe"), Value::Int(3)],
            vec![Value::Null, Value::Bool(true)],
        ]
    }

    #[test]
    fn order_does_not_matter() {
        let a = rows();
        let mut b = rows();
        b.reverse();
        b.swap(0, 2);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn multiplicity_and_content_matter() {
        let a = rows();
        let mut fewer = rows();
        fewer.remove(2); // one of the two duplicates
        assert_ne!(digest(&a), digest(&fewer));
        let mut changed = rows();
        changed[1][1] = Value::Float(2.25);
        assert_ne!(digest(&a).sum, digest(&changed).sum);
        // Cell boundaries and types are part of the hash.
        let joined = vec![vec![Value::from("ab"), Value::from("c")]];
        let split = vec![vec![Value::from("a"), Value::from("bc")]];
        assert_ne!(digest(&joined), digest(&split));
        assert_ne!(
            digest(&[vec![Value::Int(1)]]),
            digest(&[vec![Value::from("1")]])
        );
    }
}
