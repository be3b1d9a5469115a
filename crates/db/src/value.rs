//! Runtime values stored in tables and produced by queries.
//!
//! The engine is dynamically typed at the cell level: every cell holds a
//! [`Value`]. Comparisons between `Int` and `Float` coerce to `f64`, which is
//! what the invalidator relies on when it substitutes logged literals back
//! into predicates.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single cell value.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Value {
    /// SQL NULL. Compares equal only to itself for grouping/hashing purposes,
    /// but predicate evaluation treats comparisons with NULL as false
    /// (three-valued logic collapsed to false, which is all the engine needs).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with total ordering (`f64::total_cmp`).
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used for Int/Float coercion.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable (e.g. int vs. string); predicate evaluation maps
    /// `None` to "not satisfied".
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x.total_cmp(&y)),
                _ => None,
            },
        }
    }

    /// SQL equality: `None`-aware wrapper over [`Value::sql_cmp`].
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Render as a SQL literal (strings quoted and escaped). This is what the
    /// invalidator uses to build polling queries, so it must round-trip
    /// through the parser.
    pub fn to_sql_literal(&self) -> String {
        let mut out = String::new();
        self.write_sql_literal(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// [`Value::to_sql_literal`] written into `out`: what the SQL renderer
    /// calls, so that text streamed into a hasher or a larger statement
    /// allocates nothing for an integer, a string or NULL.
    pub fn write_sql_literal(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Null => out.write_str("NULL"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) => {
                // Ensure a decimal point so the parser reads it back as Float.
                // `Display` never writes an exponent, so a finite float shows
                // one exactly when it has a fraction.
                write!(out, "{f}")?;
                if f.is_finite() && f.fract() == 0.0 {
                    out.write_str(".0")?;
                }
                Ok(())
            }
            Value::Str(s) => {
                out.write_char('\'')?;
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        out.write_str("''")?;
                    }
                    out.write_str(part)?;
                }
                out.write_char('\'')
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            // Cross-type numeric equality so hash-join keys behave like
            // predicate evaluation.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64).total_cmp(b) == Ordering::Equal
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used by ORDER BY and BTree indexes:
    /// `Null < numbers < strings`, numbers compared as f64.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                a.as_f64().unwrap().total_cmp(&b.as_f64().unwrap())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints through f64 bits so Int(2) and Float(2.0), which
            // compare equal, also hash equal.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
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
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn null_comparisons_are_none() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn string_vs_number_incomparable_in_sql() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = vec![
            Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(1.5),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Float(1.5),
                Value::Int(5),
                Value::Str("a".into())
            ]
        );
    }

    #[test]
    fn sql_literal_round_trip_quoting() {
        assert_eq!(Value::Str("O'Hara".into()).to_sql_literal(), "'O''Hara'");
        assert_eq!(Value::Int(-3).to_sql_literal(), "-3");
        assert_eq!(Value::Float(2.0).to_sql_literal(), "2.0");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
    }

    /// A float is written straight into the output; the text is what
    /// formatting it into a `String` first and looking for a point gave.
    #[test]
    fn float_literals_are_spelled_as_before() {
        let old = |f: f64| {
            let s = format!("{f}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                s + ".0"
            }
        };
        let floats = [
            -0.0,
            0.0,
            1e300,
            -1e300,
            1e-7,
            0.1 + 0.2,
            3.0,
            -2.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for f in floats {
            assert_eq!(Value::Float(f).to_sql_literal(), old(f), "{f:?}");
        }
        assert_eq!(Value::Float(-0.0).to_sql_literal(), "-0.0");
        assert_eq!(Value::Float(1e-7).to_sql_literal(), "0.0000001");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
