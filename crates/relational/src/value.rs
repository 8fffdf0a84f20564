//! Runtime values and data types.
//!
//! The engine uses a small dynamic value model close to what SESQL needs:
//! NULL, booleans, 64-bit integers, 64-bit floats and UTF-8 strings.
//! Comparison follows SQL three-valued logic at the expression layer; at the
//! [`Value`] layer, comparisons against NULL return `None`.
//!
//! Strings are **interned**: [`Str`] wraps an `Arc<str>`, so cloning a text
//! value is a reference-count bump instead of a heap allocation, and
//! equality between two clones of the same allocation is a pointer
//! comparison. A per-[`crate::Database`] [`Interner`] deduplicates repeated
//! lexical forms (CSV loads, dictionary decodes, enrichment joins) so the
//! pointer fast path fires across independently produced values too.
//!
//! [`Value`] implements `Eq`/`Ord`/`Hash` directly with *grouping*
//! semantics — the total order of [`Value::total_cmp`] and a hash in which
//! `1` and `1.0` coincide — so hash-join build tables and ordered indexes
//! key on values as they are. The operators that see a key per input row
//! (GROUP BY, DISTINCT, UNION) code the same semantics into a few words
//! instead (`exec/keys.rs`).

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
}

impl DataType {
    /// Parse a type name as written in `CREATE TABLE` (case-insensitive).
    ///
    /// Common SQL aliases map onto the four storage types so that schemas
    /// written for PostgreSQL (the paper's main platform) load unchanged.
    pub fn parse(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "SERIAL" => Ok(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" | "NUMERIC" | "DECIMAL" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Ok(DataType::Text),
            other => Err(Error::parse(format!("unknown data type `{other}`"), 0)),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A cheaply-clonable, shareable string: `Arc<str>` with a pointer fast
/// path on equality and ordering. All text [`Value`]s hold one of these.
#[derive(Clone)]
pub struct Str(Arc<str>);

impl Str {
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Two `Str`s sharing one allocation (e.g. both produced by the same
    /// [`Interner`], or clones of each other).
    pub fn ptr_eq(a: &Str, b: &Str) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Address of the shared allocation: equal for two `Str`s exactly when
    /// [`Str::ptr_eq`] holds, and not reused by another string for as long
    /// as any clone of this one is alive.
    pub(crate) fn addr(&self) -> usize {
        Arc::as_ptr(&self.0).cast::<u8>() as usize
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Str {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Str {
        Str(Arc::from(s))
    }
}

impl From<String> for Str {
    fn from(s: String) -> Str {
        Str(Arc::from(s))
    }
}

impl From<Arc<str>> for Str {
    fn from(s: Arc<str>) -> Str {
        Str(s)
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Str) -> bool {
        Str::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for Str {}

impl PartialEq<str> for Str {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Str {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Str {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Str) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Str) -> Ordering {
        if Str::ptr_eq(self, other) {
            return Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hash, matching `Borrow<str>` (interner lookups by &str).
        self.0.hash(state)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Default bound on distinct strings an [`Interner`] will hold. Beyond
/// it, `intern` degrades to a plain allocation — correctness unchanged,
/// only the sharing is lost — so a long-lived engine fed unbounded
/// high-cardinality text (unique IDs, measurements) cannot pin memory
/// for its whole lifetime.
pub const DEFAULT_INTERNER_CAPACITY: usize = 1 << 18;

/// A string interner: repeated lexical forms share one allocation, so
/// equality between interned values is a pointer comparison and N
/// occurrences of a term cost one allocation total. One lives on each
/// `Database`; hot conversion paths (CSV import, RDF term decoding in the
/// enrichment pass) intern through it. Bounded (see
/// [`DEFAULT_INTERNER_CAPACITY`]): at capacity, lookups still hit but new
/// strings are returned un-shared instead of being remembered.
#[derive(Debug)]
pub struct Interner {
    strings: Mutex<HashSet<Str>>,
    capacity: usize,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            strings: Mutex::new_labeled("interner.strings", HashSet::new()),
            capacity: DEFAULT_INTERNER_CAPACITY,
        }
    }
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner bounded to `capacity` distinct strings (0 disables
    /// sharing entirely).
    pub fn with_capacity(capacity: usize) -> Self {
        Interner { strings: Mutex::new_labeled("interner.strings", HashSet::new()), capacity }
    }

    /// The shared [`Str`] for `s` (allocating only on first sight; not
    /// remembered once the capacity bound is reached).
    pub fn intern(&self, s: &str) -> Str {
        let mut strings = self.strings.lock();
        if let Some(hit) = strings.get(s) {
            return hit.clone();
        }
        let fresh = Str::from(s);
        if strings.len() < self.capacity {
            strings.insert(fresh.clone());
        }
        fresh
    }

    /// Intern an owned string (reuses the allocation on first sight).
    pub fn intern_owned(&self, s: String) -> Str {
        let mut strings = self.strings.lock();
        if let Some(hit) = strings.get(s.as_str()) {
            return hit.clone();
        }
        let fresh = Str::from(s);
        if strings.len() < self.capacity {
            strings.insert(fresh.clone());
        }
        fresh
    }

    /// Interned text [`Value`] for `s`.
    pub fn value(&self, s: &str) -> Value {
        Value::Str(self.intern(s))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop the table (existing `Str`s stay valid; future interns realloc).
    pub fn clear(&self) {
        self.strings.lock().clear();
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Str),
}

impl Value {
    /// The value's data type, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Text),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow the text content of a `Str` value (`None` for other kinds).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce into `target` if losslessly possible (Int→Float, anything→Text
    /// is *not* implicit; only numeric widening is).
    pub fn coerce(self, target: DataType) -> Result<Value> {
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
            (v, t) if v.data_type() == Some(t) => Ok(v),
            (v, t) => Err(Error::constraint(format!(
                "cannot store {} value `{v}` into {t} column",
                v.data_type().map(|d| d.to_string()).unwrap_or_else(|| "NULL".into())
            ))),
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (UNKNOWN),
    /// or when the values are of incomparable types.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for ORDER BY and index structures: NULLs sort
    /// first, then booleans, numbers, strings; `-0.0` sorts as `0.0`, as
    /// it groups. Unlike [`Value::sql_cmp`] this never fails, so sorting
    /// mixed columns is deterministic.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.rank(), other.rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => unsigned_zero(*a).total_cmp(&unsigned_zero(*b)),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(&unsigned_zero(*b)),
            (Value::Float(a), Value::Int(b)) => unsigned_zero(*a).total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => unreachable!("rank() guarantees same class"),
        }
    }

    /// Type-class rank backing the total order (and the `Hash` impl, which
    /// must collapse Int/Float into one class the way `total_cmp` does).
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// SQL equality (NULL-propagating): `None` if either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Equality for grouping / DISTINCT / hash joins: NULL equals NULL,
    /// and *all* numbers compare through their `f64` value (bit pattern,
    /// `-0.0` read as `0.0`), so `1 = 1.0` and `0 = -0.0` group together
    /// and NaN keys are stable. This is what
    /// `==` (and the `Eq`/`Hash` impls) mean for `Value`.
    ///
    /// Numbers must go through `f64` on *both* sides — an exact Int/Int
    /// comparison would make equality non-transitive around 2^53 (two
    /// adjacent huge ints both equal to the same float but not to each
    /// other), which corrupts hash containers keyed by `Value`.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (a, b) => match (a.as_f64_bits(), b.as_f64_bits()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }

    /// The `f64` bit pattern of a numeric value (`None` otherwise) — the
    /// shared key through which Int and Float unify in `Eq`/`Hash` and in
    /// the executor's coded keys. `-0.0` takes the bits of `0.0`: SQL has
    /// `0 = -0.0`, and grouping must not tell apart what `=` equates.
    pub(crate) fn as_f64_bits(&self) -> Option<u64> {
        match self {
            Value::Int(i) => Some((*i as f64).to_bits()),
            Value::Float(f) => Some(unsigned_zero(*f).to_bits()),
            _ => None,
        }
    }

    /// Render as a bare string (no quotes), allocating only for non-text
    /// values — used for SESQL↔RDF bridging, where relational values are
    /// compared with RDF term lexical forms.
    pub fn lexical(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Bool(b) => Cow::Owned(b.to_string()),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    Cow::Owned(format!("{f:.1}"))
                } else {
                    Cow::Owned(f.to_string())
                }
            }
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    /// Owned form of [`Value::lexical`].
    pub fn lexical_form(&self) -> String {
        self.lexical().into_owned()
    }
}

/// `f` with `-0.0` read as `0.0`, so the two zeros are one value to
/// grouping, hashing and the total order alike.
fn unsigned_zero(f: f64) -> f64 {
    if f == 0.0 {
        0.0
    } else {
        f
    }
}

/// Grouping equality (see [`Value::group_eq`]): `NULL == NULL`,
/// `1 == 1.0` (numbers unify through `f64`), NaNs compare by bit pattern.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The total order of [`Value::total_cmp`] — NOT SQL comparison semantics
/// (no NULL propagation). Lets `Value` key ordered containers directly.
///
/// Note: `Ord` distinguishes integers exactly while `Eq` unifies numbers
/// through `f64` — for integers beyond 2^53 two values can be `Equal`-
/// adjacent in the order yet `==` each other. Ordered containers (ORDER
/// BY, BTreeMap indexes) only rely on `Ord`; hash containers only on
/// `Eq`/`Hash`, which are mutually consistent.
impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        self.total_cmp(other)
    }
}

/// Hash consistent with the grouping `Eq`: integers and integral floats
/// hash identically (both through the `f64` bit pattern) so that `1` and
/// `1.0` land in the same hash bucket, matching `group_eq`.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(_) | Value::Float(_) => self.as_f64_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Str::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Str::from(v))
    }
}
impl From<Str> for Value {
    fn from(v: Str) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A tuple of values; the engine's unit of data flow.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_aliases_parse() {
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Text);
        assert_eq!(DataType::parse("BIGINT").unwrap(), DataType::Int);
        assert_eq!(DataType::parse("double").unwrap(), DataType::Float);
        assert_eq!(DataType::parse("boolean").unwrap(), DataType::Bool);
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Float(1.5).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn incomparable_types_are_unknown() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks_classes() {
        let mut vs = [Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert!(vs[0].is_null());
        assert!(matches!(vs[1], Value::Bool(true)));
        assert!(matches!(vs[2], Value::Float(_)));
        assert!(matches!(vs[3], Value::Int(3)));
        assert!(matches!(vs[4], Value::Str(_)));
    }

    fn hash_of(v: &Value) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hash_unifies_int_and_float() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(hash_of(&Value::Int(1)), hash_of(&Value::Float(1.0)));
        assert_ne!(Value::Int(1), Value::Float(1.25));
    }

    #[test]
    fn the_two_zeros_are_one_value() {
        // `0 = -0.0` in SQL, so grouping, hashing and the total order
        // agree that they are one value.
        let (pos, neg) = (Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(pos.sql_eq(&neg), Some(true));
        assert_eq!(pos, neg);
        assert_eq!(Value::Int(0), neg);
        assert_eq!(hash_of(&pos), hash_of(&neg));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&neg));
        assert_eq!(pos.total_cmp(&neg), Ordering::Equal);
        assert_eq!(Value::Int(0).total_cmp(&neg), Ordering::Equal);
    }

    #[test]
    fn hash_matches_group_equality_for_strings() {
        let a = Value::from("Torino");
        let b = Value::from("Torino".to_string());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn grouping_eq_is_transitive_beyond_2_53() {
        // 2^53 and 2^53+1 round to the same f64. Grouping equality must
        // unify them (as the float they both equal does), or Eq would be
        // non-transitive and corrupt hash containers keyed by Value.
        let a = Value::Int(9007199254740992);
        let b = Value::Int(9007199254740993);
        let f = Value::Float(9007199254740992.0);
        assert_eq!(a, f);
        assert_eq!(b, f);
        assert_eq!(a, b, "Eq must be transitive through the float");
        assert_eq!(hash_of(&a), hash_of(&b));
        // The total order still distinguishes them exactly (ORDER BY and
        // BTreeMap indexes rely on Ord alone).
        assert_eq!(a.total_cmp(&b), Ordering::Less);
    }

    #[test]
    fn nan_and_null_group_keys_are_stable() {
        // NaN == NaN and NULL == NULL under grouping semantics, with
        // matching hashes — a GROUP BY over them forms one group each.
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, nan);
    }

    #[test]
    fn coercion_widens_int_to_float() {
        assert!(matches!(
            Value::Int(3).coerce(DataType::Float).unwrap(),
            Value::Float(f) if f == 3.0
        ));
        assert!(Value::Str("x".into()).coerce(DataType::Int).is_err());
        assert!(Value::Null.coerce(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn lexical_form_round_trips_strings() {
        assert_eq!(Value::Str("Mercury".into()).lexical_form(), "Mercury");
        assert_eq!(Value::Int(42).lexical_form(), "42");
        assert_eq!(Value::Float(2.0).lexical_form(), "2.0");
        assert_eq!(Value::Bool(true).lexical_form(), "true");
    }

    #[test]
    fn lexical_borrows_text_values() {
        let v = Value::from("Hg");
        assert!(matches!(v.lexical(), Cow::Borrowed("Hg")));
        assert!(matches!(Value::Int(1).lexical(), Cow::Owned(_)));
    }

    // ---- interning ---------------------------------------------------------

    #[test]
    fn interner_shares_allocations() {
        let interner = Interner::new();
        let a = interner.intern("Torino");
        let b = interner.intern("Torino");
        assert!(Str::ptr_eq(&a, &b));
        assert_eq!(interner.len(), 1);
        let c = interner.intern("Milano");
        assert!(!Str::ptr_eq(&a, &c));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interned_values_equal_fresh_values() {
        let interner = Interner::new();
        assert_eq!(interner.value("Hg"), Value::from("Hg"));
        assert_eq!(interner.intern_owned("Pb".to_string()), Str::from("Pb"));
    }

    #[test]
    fn str_comparisons_against_plain_strings() {
        let s = Str::from("ciao");
        assert_eq!(s, *"ciao");
        assert_eq!(s, "ciao");
        assert_eq!(s, "ciao".to_string());
        assert_eq!(s.as_str(), "ciao");
        let (a, b) = (Str::from("a"), Str::from("b"));
        assert!(a < b);
    }

    #[test]
    fn unicode_round_trips_through_interning() {
        let interner = Interner::new();
        for s in ["héllo wörld", "試験データ", "emoji 🜍 alchemy", "ASCII"] {
            let interned = interner.value(s);
            assert_eq!(interned.lexical_form(), s);
            assert_eq!(interned, Value::from(s));
            assert_eq!(hash_of(&interned), hash_of(&Value::from(s)));
        }
    }

    #[test]
    fn clear_keeps_existing_strs_valid() {
        let interner = Interner::new();
        let a = interner.intern("x");
        interner.clear();
        assert!(interner.is_empty());
        assert_eq!(a, "x");
        let b = interner.intern("x");
        assert_eq!(a, b, "equal content, distinct allocation after clear");
        assert!(!Str::ptr_eq(&a, &b));
    }
}
