//! The argument data model for component invocations.
//!
//! IDL method parameters and results are represented as dynamically typed
//! [`Value`]s, which the stubs genuinely marshal to bytes (see [`crate::wire`])
//! whenever an invocation crosses a process boundary. This keeps the
//! reproduction honest: the FTL must ride the message, because nothing else
//! survives the byte boundary.

use std::fmt;

/// A dynamically typed IDL value.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// The absence of a value (a `void` result).
    #[default]
    Void,
    /// `boolean`.
    Bool(bool),
    /// `long` (32-bit).
    I32(i32),
    /// `long long` (64-bit).
    I64(i64),
    /// `double`.
    F64(f64),
    /// `string`.
    Str(String),
    /// `sequence<octet>` — opaque payloads (e.g. a page raster).
    Blob(Vec<u8>),
    /// `sequence<T>` — a homogeneous or heterogeneous list.
    Seq(Vec<Value>),
    /// `struct` — named fields in declaration order.
    Struct(Vec<(String, Value)>),
}

impl Value {
    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Bool(_) => "boolean",
            Value::I32(_) => "long",
            Value::I64(_) => "long long",
            Value::F64(_) => "double",
            Value::Str(_) => "string",
            Value::Blob(_) => "blob",
            Value::Seq(_) => "sequence",
            Value::Struct(_) => "struct",
        }
    }

    /// Borrows as `bool` when the value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrows as `i32` when the value is an `I32`.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrows as `i64` when the value is an `I64` (or widens an `I32`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::I32(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Borrows as `f64` when the value is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrows as `&str` when the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows as `&[u8]` when the value is a `Blob`.
    pub fn as_blob(&self) -> Option<&[u8]> {
        match self {
            Value::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Looks up a struct field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An estimate of the marshalled size in bytes, used by workload
    /// generators to size payloads.
    pub fn wire_size_hint(&self) -> usize {
        match self {
            Value::Void => 1,
            Value::Bool(_) => 2,
            Value::I32(_) => 5,
            Value::I64(_) | Value::F64(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Blob(b) => 5 + b.len(),
            Value::Seq(items) => 5 + items.iter().map(Value::wire_size_hint).sum::<usize>(),
            Value::Struct(fields) => {
                5 + fields
                    .iter()
                    .map(|(n, v)| 5 + n.len() + v.wire_size_hint())
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Void => f.write_str("void"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Blob(b) => write!(f, "blob[{}]", b.len()),
            Value::Seq(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Struct(fields) => {
                f.write_str("{")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Blob(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Seq(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(7i32).as_i32(), Some(7));
        assert_eq!(Value::from(7i32).as_i64(), Some(7), "i32 widens");
        assert_eq!(Value::from(9i64).as_i64(), Some(9));
        assert_eq!(Value::from(1.5f64).as_f64(), Some(1.5));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(vec![1u8, 2]).as_blob(), Some(&[1u8, 2][..]));
        assert_eq!(Value::from("hi").as_i32(), None);
    }

    #[test]
    fn struct_field_lookup() {
        let v = Value::Struct(vec![
            ("pages".into(), Value::I32(12)),
            ("title".into(), Value::from("doc")),
        ]);
        assert_eq!(v.field("pages"), Some(&Value::I32(12)));
        assert_eq!(v.field("missing"), None);
        assert_eq!(Value::Void.field("x"), None);
    }

    #[test]
    fn display_is_debuggable() {
        let v = Value::Seq(vec![Value::I32(1), Value::from("a")]);
        assert_eq!(v.to_string(), "[1, \"a\"]");
        assert_eq!(Value::Blob(vec![0; 16]).to_string(), "blob[16]");
        let s = Value::Struct(vec![("k".into(), Value::Bool(false))]);
        assert_eq!(s.to_string(), "{k: false}");
    }

    #[test]
    fn size_hint_tracks_content() {
        assert!(Value::Blob(vec![0; 1000]).wire_size_hint() >= 1000);
        assert!(Value::from("hello").wire_size_hint() >= 5);
        let nested = Value::Seq(vec![Value::Blob(vec![0; 100]); 3]);
        assert!(nested.wire_size_hint() >= 300);
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(Value::Void.type_name(), "void");
        assert_eq!(Value::I64(0).type_name(), "long long");
        assert_eq!(Value::Struct(vec![]).type_name(), "struct");
    }
}
