//! Field-capturing serializer: a row is declared once as its
//! `#[derive(Serialize)]` struct, and both the stdout table and the JSON
//! artifacts are derived from the captured fields.
//!
//! [`capture`] runs any `Serialize` value into a [`Value`] tree that keeps
//! field names, field order and the integer/float distinction, so
//! re-serializing a `Value` through `serde_json` is byte-identical to
//! serializing the original. `render` lays captured struct rows out as an
//! aligned text table.

use serde::ser::{SerializeSeq, SerializeStruct, SerializeTupleStruct};
use serde::{Serialize, Serializer};

/// A captured serialized value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unit or a missing optional.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence or tuple struct.
    Seq(Vec<Value>),
    /// A named-field struct, fields in declaration order.
    Struct(Vec<(&'static str, Value)>),
}

/// Captures `value` as a [`Value`] tree.
pub fn capture<T: Serialize + ?Sized>(value: &T) -> Value {
    value
        .serialize(Capture)
        .expect("capturing into memory cannot fail")
}

struct Capture;

type Error = serde_json::Error;

impl Serializer for Capture {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = Compound;
    type SerializeStruct = Compound;
    type SerializeTupleStruct = Compound;

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(Value::Bool(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(Value::I64(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(Value::U64(v))
    }
    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        Ok(Value::F64(v))
    }
    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(Value::Str(v.to_owned()))
    }
    fn serialize_unit(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_none(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        value.serialize(self)
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound, Error> {
        Ok(Compound::default())
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound, Error> {
        Ok(Compound::default())
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Compound, Error> {
        Ok(Compound::default())
    }
}

/// Collects the children of a sequence (`items`) or struct (`fields`).
#[derive(Default)]
struct Compound {
    items: Vec<Value>,
    fields: Vec<(&'static str, Value)>,
}

impl SerializeSeq for Compound {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(capture(value));
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Seq(self.items))
    }
}

impl SerializeTupleStruct for Compound {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(capture(value));
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Seq(self.items))
    }
}

impl SerializeStruct for Compound {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.fields.push((key, capture(value)));
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Struct(self.fields))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_none(),
            Value::Bool(v) => serializer.serialize_bool(*v),
            Value::I64(v) => serializer.serialize_i64(*v),
            Value::U64(v) => serializer.serialize_u64(*v),
            Value::F64(v) => serializer.serialize_f64(*v),
            Value::Str(v) => serializer.serialize_str(v),
            Value::Seq(items) => items.serialize(serializer),
            Value::Struct(fields) => {
                let mut st = serializer.serialize_struct("", fields.len())?;
                for (key, value) in fields {
                    st.serialize_field(key, value)?;
                }
                st.end()
            }
        }
    }
}

impl Value {
    /// The value as one table cell: floats to three decimals (scientific
    /// below 0.001 so small timings keep their digits), `-` for a missing
    /// optional, nested values (no experiment row has any) as compact JSON.
    fn cell(&self) -> String {
        match self {
            Value::Null => "-".into(),
            Value::Bool(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::U64(v) => v.to_string(),
            Value::F64(v) if *v != 0.0 && v.abs() < 1e-3 => format!("{v:.2e}"),
            Value::F64(v) => format!("{v:.3}"),
            Value::Str(v) => v.clone(),
            nested => serde_json::to_string(nested).unwrap_or_default(),
        }
    }
}

/// Renders captured struct rows as an aligned table: one column per
/// field, headed by the field name; strings left-aligned, everything else
/// right-aligned. Rows that are not structs get a single `value` column.
pub(crate) fn render(rows: &[Value]) -> String {
    fn fields(row: &Value) -> Vec<(&'static str, &Value)> {
        match row {
            Value::Struct(fields) => fields.iter().map(|(name, v)| (*name, v)).collect(),
            other => vec![("value", other)],
        }
    }
    let Some(header) = rows.first().map(fields) else {
        return String::new();
    };
    let mut lines: Vec<Vec<String>> =
        vec![header.iter().map(|(name, _)| name.to_string()).collect()];
    lines.extend(
        rows.iter()
            .map(|row| fields(row).iter().map(|(_, v)| v.cell()).collect()),
    );
    let mut out = String::new();
    for line in &lines {
        let mut text = String::new();
        for (col, cell) in line.iter().enumerate() {
            let cells = lines.iter().filter_map(|line| line.get(col));
            let width = cells.map(|c| c.chars().count()).max().unwrap_or(0);
            let sep = if col == 0 { "" } else { "  " };
            if matches!(header.get(col), Some((_, Value::Str(_)))) {
                text.push_str(&format!("{sep}{cell:<width$}"));
            } else {
                text.push_str(&format!("{sep}{cell:>width$}"));
            }
        }
        out.push_str(text.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        name: &'static str,
        n: usize,
        ms: f64,
        tick: Option<u64>,
        ok: bool,
    }

    fn rows() -> Vec<Row> {
        vec![
            Row {
                name: "baseline",
                n: 4,
                ms: 1.23456,
                tick: None,
                ok: true,
            },
            Row {
                name: "x",
                n: 1200,
                ms: 0.00042,
                tick: Some(21),
                ok: false,
            },
        ]
    }

    #[test]
    fn captured_rows_reserialize_byte_identically() {
        let rows = rows();
        let direct = serde_json::to_string_pretty(&rows).unwrap();
        let captured: Vec<Value> = rows.iter().map(capture).collect();
        assert_eq!(serde_json::to_string_pretty(&captured).unwrap(), direct);
        assert!(direct.contains("\"tick\": null") && direct.contains("\"ms\": 1.23456"));
    }

    #[test]
    fn table_is_headed_by_field_names_and_aligned() {
        let captured: Vec<Value> = rows().iter().map(capture).collect();
        let table = render(&captured);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "name         n       ms  tick     ok");
        assert_eq!(lines[1], "baseline     4    1.235     -   true");
        assert_eq!(lines[2], "x         1200  4.20e-4    21  false");
        assert_eq!(render(&[]), "");
    }
}
