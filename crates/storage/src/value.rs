//! Dynamically typed SQL values.
//!
//! The engine stores rows as vectors of [`Value`]. Values carry their own
//! runtime type; the schema layer ([`crate::schema`]) checks that stored
//! values match declared column types.

use std::cmp::Ordering;
use std::fmt;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A dynamically typed value.
///
/// `Value` implements a *total* order (needed for index keys and ORDER BY):
/// `Null < Bool < numeric (Int/Float compared by value) < Text`. Float NaN
/// sorts above every other float, mirroring `f64::total_cmp` behaviour
/// closely enough for index purposes.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
}

impl Value {
    /// Runtime type of the value, or `None` for `Null` (null inhabits all types).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True if this value can be stored in a column of type `ty`.
    /// `Null` matches every type; `Int` widens into `Float` columns.
    pub fn matches(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int widened to f64), if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used for cross-type total ordering.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }

    /// Total order over all values. Numeric values compare by value across
    /// Int/Float; everything else compares within its type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => {
                // Mixed or pure float numeric comparison. Plain `==` first so
                // that -0.0 and +0.0 compare equal (total_cmp separates them).
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                if x == y {
                    Ordering::Equal
                } else {
                    x.total_cmp(&y)
                }
            }
        }
    }

    /// SQL equality (used by predicates): `Null` equals nothing, not even
    /// itself. Index keys use [`Value::total_cmp`] instead, where nulls are
    /// comparable.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.total_cmp(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

/// Below 2^53 every integer is exactly a float, so an integral float there
/// is the INT it equals.
const EXACT_INTS: f64 = (1u64 << 53) as f64;

/// Consistent with `Eq`: an integral float below 2^53 in magnitude hashes
/// as the INT it equals (`-0.0` as `0`), so a key lock or a hashed group
/// keyed by `5.0` is the one keyed by `5`. Other floats hash their bits.
/// (Beyond 2^53 `Int` vs `Float` equality rounds the INT, so `Eq` is not
/// transitive there and no hash can agree with it.)
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Float(f) if f.fract() == 0.0 && f.abs() < EXACT_INTS => {
                Value::Int(*f as i64).hash(state)
            }
            _ => {
                std::mem::discriminant(self).hash(state);
                match self {
                    Value::Null => {}
                    Value::Bool(b) => b.hash(state),
                    Value::Int(i) => i.hash(state),
                    Value::Float(f) => f.to_bits().hash(state),
                    Value::Text(s) => s.hash(state),
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_matching() {
        assert!(Value::Null.matches(DataType::Int));
        assert!(Value::Int(3).matches(DataType::Int));
        assert!(Value::Int(3).matches(DataType::Float));
        assert!(!Value::Float(3.0).matches(DataType::Int));
        assert!(Value::Text("x".into()).matches(DataType::Text));
        assert!(!Value::Bool(true).matches(DataType::Text));
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = vec![
            Value::Text("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::Text("a".into()),
            ]
        );
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.5).total_cmp(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
        assert!(Value::Int(1).sql_eq(&Value::Float(1.0)));
    }

    #[test]
    fn eq_and_hash_agree_for_numerics() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // A FLOAT column holds INTs too (`matches` widens them), so equal
        // values of the two types must hash alike.
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        for (a, b) in [
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Int(5), Value::Float(5.0)),
            (Value::Int(-7), Value::Float(-7.0)),
        ] {
            assert_eq!(a, b);
            assert_eq!(h(&a), h(&b), "{a:?} vs {b:?}");
        }
        assert_ne!(h(&Value::Int(5)), h(&Value::Float(5.5)));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
    }

    #[test]
    fn nan_sorts_above_numbers() {
        assert_eq!(
            Value::Float(f64::NAN).total_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
    }
}
