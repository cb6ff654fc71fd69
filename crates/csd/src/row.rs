//! Row values and the on-media row codec.

use crate::schema::{ColumnType, Cursor, Schema};
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Numeric view (ints coerce to floats for mixed comparisons).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// The column type this value inhabits.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Str(_) => ColumnType::Str,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A decoded cell that borrows its string from the encoded row, so scanning
/// a page builds no `Row` and allocates nothing per row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cell<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl Cell<'_> {
    /// The same numeric view as [`Value::as_f64`].
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(i as f64),
            Cell::Float(f) => Some(f),
            Cell::Str(_) => None,
        }
    }

    fn decode<'a>(cur: &mut Cursor<'a>, ty: ColumnType) -> Option<Cell<'a>> {
        Some(match ty {
            ColumnType::Int => Cell::Int(cur.take_u64()? as i64),
            ColumnType::Float => Cell::Float(f64::from_bits(cur.take_u64()?)),
            ColumnType::Str => Cell::Str(cur.take_str()?),
        })
    }
}

impl From<Cell<'_>> for Value {
    fn from(c: Cell<'_>) -> Value {
        match c {
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

/// One table row: values in schema column order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Cell values, one per schema column.
    pub values: Vec<Value>,
}

impl Row {
    /// Creates a row.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Validates the row against a schema (arity + per-column types) and
    /// the codec: a string must fit its `u16` length prefix.
    pub fn matches_schema(&self, schema: &Schema) -> bool {
        self.values.len() == schema.columns.len()
            && self.values.iter().zip(&schema.columns).all(|(v, c)| {
                v.column_type() == c.ty
                    && !matches!(v, Value::Str(s) if s.len() > u16::MAX as usize)
            })
    }

    /// Appends the row's encoding: ints/floats as 8 LE bytes, strings as
    /// `[len u16][bytes]`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in &self.values {
            match v {
                Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
                Value::Float(f) => out.extend_from_slice(&f.to_bits().to_le_bytes()),
                Value::Str(s) => {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.values
            .iter()
            .map(|v| match v {
                Value::Int(_) | Value::Float(_) => 8,
                Value::Str(s) => 2 + s.len(),
            })
            .sum()
    }

    /// Decodes one row per `schema` from the cursor position into `cells`
    /// (one per column), with every bounds and UTF-8 check of the owned
    /// decode. `None` leaves `cells` partly written.
    pub(crate) fn decode_cells<'a>(
        cur: &mut Cursor<'a>,
        schema: &Schema,
        cells: &mut [Cell<'a>],
    ) -> Option<()> {
        debug_assert_eq!(cells.len(), schema.columns.len());
        for (cell, c) in cells.iter_mut().zip(&schema.columns) {
            *cell = Cell::decode(cur, c.ty)?;
        }
        Some(())
    }

    /// Decodes one owned row per `schema` from the cursor position.
    fn decode_from(cur: &mut Cursor<'_>, schema: &Schema) -> Option<Row> {
        let values = schema
            .columns
            .iter()
            .map(|c| Cell::decode(cur, c.ty).map(Value::from))
            .collect::<Option<_>>()?;
        Some(Row { values })
    }

    /// Decodes a packed sequence of rows (`[count u32]` header then rows).
    pub fn decode_batch(bytes: &[u8], schema: &Schema) -> Option<Vec<Row>> {
        let mut cur = Cursor { bytes, pos: 0 };
        let count = cur.take_u32()? as usize;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(Row::decode_from(&mut cur, schema)?);
        }
        Some(rows)
    }

    /// Encodes a batch with a `[count u32]` header.
    pub fn encode_batch(rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + rows.iter().map(Row::encoded_len).sum::<usize>());
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for r in rows {
            r.encode_into(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Float),
                Column::new("c", ColumnType::Str),
            ],
        )
    }

    fn row(a: i64, b: f64, c: &str) -> Row {
        Row::new(vec![
            Value::Int(a),
            Value::Float(b),
            Value::Str(c.to_string()),
        ])
    }

    #[test]
    fn batch_round_trip() {
        let rows = vec![
            row(1, 2.5, "x"),
            row(-7, 0.0, ""),
            row(i64::MAX, -1e300, "long string here"),
        ];
        let schema = schema();
        let encoded = Row::encode_batch(&rows);
        assert_eq!(Row::decode_batch(&encoded, &schema), Some(rows));
    }

    #[test]
    fn schema_validation() {
        let s = schema();
        assert!(row(1, 1.0, "ok").matches_schema(&s));
        assert!(!Row::new(vec![Value::Int(1)]).matches_schema(&s));
        assert!(!Row::new(vec![
            Value::Str("wrong".into()),
            Value::Float(0.0),
            Value::Str("x".into())
        ])
        .matches_schema(&s));
    }

    #[test]
    fn encoded_len_matches() {
        let r = row(1, 2.0, "abc");
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        assert_eq!(r.encoded_len(), 8 + 8 + 2 + 3);
    }

    #[test]
    fn truncated_batch_is_none() {
        let rows = vec![row(1, 2.5, "x")];
        let encoded = Row::encode_batch(&rows);
        assert_eq!(
            Row::decode_batch(&encoded[..encoded.len() - 1], &schema()),
            None
        );
    }

    #[test]
    fn string_longer_than_its_length_prefix_is_rejected() {
        let s = schema();
        assert!(!row(1, 1.0, &"x".repeat(65_546)).matches_schema(&s));
        assert!(row(1, 1.0, &"x".repeat(u16::MAX as usize)).matches_schema(&s));
    }

    #[test]
    fn longest_encodable_string_round_trips() {
        let rows = vec![row(1, 1.0, &("é".repeat(u16::MAX as usize / 2) + "x"))];
        assert_eq!(rows[0].encoded_len(), 8 + 8 + 2 + u16::MAX as usize);
        let encoded = Row::encode_batch(&rows);
        assert_eq!(Row::decode_batch(&encoded, &schema()), Some(rows));
    }

    #[test]
    fn decode_cells_borrows_what_decode_batch_owns() {
        let rows = vec![row(-3, f64::NAN, "ünï"), row(7, -0.0, "")];
        let encoded = Row::encode_batch(&rows);
        let s = schema();
        let mut cur = Cursor {
            bytes: &encoded,
            pos: 4,
        };
        let mut cells = [Cell::Int(0); 3];
        for r in &rows {
            let start = cur.pos;
            Row::decode_cells(&mut cur, &s, &mut cells).unwrap();
            let mut own = Vec::new();
            r.encode_into(&mut own);
            assert_eq!(&encoded[start..cur.pos], &own[..], "canonical codec");
            let values: Vec<Value> = cells.iter().map(|&c| c.into()).collect();
            assert_eq!(format!("{values:?}"), format!("{:?}", r.values));
        }
        assert_eq!(cur.pos, encoded.len());
        // Truncation and invalid UTF-8 fail exactly as the owned decode does.
        let mut cut = Cursor {
            bytes: &encoded[..encoded.len() - 1],
            pos: 4,
        };
        assert!(Row::decode_cells(&mut cut, &s, &mut cells).is_some());
        assert!(Row::decode_cells(&mut cut, &s, &mut cells).is_none());
        let mut bad = Row::encode_batch(&[row(1, 1.0, "ab")]);
        let last = bad.len() - 1;
        bad[last] = 0xFF;
        let mut bad_cur = Cursor {
            bytes: &bad,
            pos: 4,
        };
        assert!(Row::decode_cells(&mut bad_cur, &s, &mut cells).is_none());
        assert_eq!(Row::decode_batch(&bad, &s), None);
    }

    #[test]
    fn value_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }
}
