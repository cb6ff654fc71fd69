//! Device-side predicate evaluation.
//!
//! The executor evaluates the pushed-down predicate against each row. Two
//! policies for columns the table does not have:
//!
//! * [`UnknownColumn::Error`] — strict mode for segment tasks, where the
//!   predicate is supposed to reference only the named table.
//! * [`UnknownColumn::Neutral`] — full-SQL mode: comparisons touching other
//!   tables' columns (join conditions in TPC-H text) evaluate to `true`, so
//!   the device applies exactly the single-table filter portion — the same
//!   isolation the paper describes for Q1/Q2 ("isolating the filter
//!   condition on a single table").
//!
//! [`eval`] walks the parsed tree against an owned [`Row`] and is the
//! reference. The firmware instead compiles each task's predicate once
//! against the table schema ([`Compiled`]) and runs it over borrowed
//! [`Cell`]s, with the same result for every row.

use crate::row::{Cell, Row, Value};
use crate::schema::{ColumnType, Schema};
use crate::sql::{CmpOp, Expr, Operand};
use std::cmp::Ordering;
use std::fmt;

/// Policy for predicate columns absent from the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownColumn {
    /// Fail evaluation.
    Error,
    /// Treat the enclosing comparison as `true` (join-condition skipping).
    Neutral,
}

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced column is not in the schema (strict mode).
    UnknownColumn(String),
    /// Operands cannot be compared (e.g. string vs number).
    TypeMismatch {
        /// Textual description of the comparison.
        cmp: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            EvalError::TypeMismatch { cmp } => write!(f, "type mismatch in {cmp}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `expr` against `row` under `schema`.
///
/// # Errors
///
/// [`EvalError`] for unknown columns (strict mode) or uncomparable operand
/// types.
pub fn eval(
    expr: &Expr,
    schema: &Schema,
    row: &Row,
    unknown: UnknownColumn,
) -> Result<bool, EvalError> {
    match expr {
        Expr::And(a, b) => Ok(eval(a, schema, row, unknown)? && eval(b, schema, row, unknown)?),
        Expr::Or(a, b) => Ok(eval(a, schema, row, unknown)? || eval(b, schema, row, unknown)?),
        Expr::Not(e) => Ok(!eval(e, schema, row, unknown)?),
        Expr::Cmp { left, op, right } => {
            let lv = resolve(left, schema, row);
            let rv = resolve(right, schema, row);
            match (lv, rv) {
                (Some(l), Some(r)) => compare(&l, *op, &r, expr),
                _ => match unknown {
                    UnknownColumn::Neutral => Ok(true),
                    UnknownColumn::Error => {
                        let missing = [left, right]
                            .into_iter()
                            .find_map(|o| match o {
                                Operand::Col(c) if !schema.has_column(c) => Some(c.clone()),
                                _ => None,
                            })
                            .unwrap_or_default();
                        Err(EvalError::UnknownColumn(missing))
                    }
                },
            }
        }
    }
}

fn resolve(op: &Operand, schema: &Schema, row: &Row) -> Option<Value> {
    match op {
        Operand::Lit(v) => Some(v.clone()),
        Operand::Col(name) => schema.column_index(name).map(|i| row.values[i].clone()),
    }
}

fn compare(l: &Value, op: CmpOp, r: &Value, expr: &Expr) -> Result<bool, EvalError> {
    let ord = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(EvalError::TypeMismatch {
                    cmp: expr.to_string(),
                });
            };
            num_ord(a, b)
        }
    };
    Ok(holds(op, ord))
}

/// Numeric order; NaN compares equal to everything.
fn num_ord(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// A predicate compiled against one schema: column names resolved to
/// indices, each comparison typed numeric or text from the column types,
/// nodes in one flat prefix-order `Vec` (a node's first child follows it).
#[derive(Debug)]
pub(crate) struct Compiled {
    nodes: Vec<Node>,
}

#[derive(Debug)]
enum Node {
    /// Short-circuit conjunction; the second child starts at `rhs`.
    And {
        rhs: usize,
    },
    /// Short-circuit disjunction; the second child starts at `rhs`.
    Or {
        rhs: usize,
    },
    Not,
    /// Compared through `f64`, as [`Value::as_f64`] does.
    Num {
        l: Num,
        op: CmpOp,
        r: Num,
    },
    Text {
        l: Text,
        op: CmpOp,
        r: Text,
    },
    /// A neutral-policy comparison on an unknown column.
    True,
    /// An unknown column (strict policy) or a string-vs-number comparison:
    /// fails only when a row reaches it, like [`eval`].
    Fail,
}

#[derive(Debug)]
enum Num {
    Col(usize),
    Lit(f64),
}

#[derive(Debug)]
enum Text {
    Col(usize),
    Lit(Box<str>),
}

enum Typed {
    Num(Num),
    Text(Text),
    Unknown,
}

impl Num {
    fn get(&self, cells: &[Cell<'_>]) -> Option<f64> {
        match self {
            Num::Col(i) => cells[*i].as_f64(),
            Num::Lit(v) => Some(*v),
        }
    }
}

impl Text {
    fn get<'s>(&'s self, cells: &[Cell<'s>]) -> Option<&'s str> {
        match self {
            Text::Col(i) => match cells[*i] {
                Cell::Str(s) => Some(s),
                _ => None,
            },
            Text::Lit(s) => Some(s),
        }
    }
}

impl Compiled {
    /// Compiles `expr` (`None`: every row matches) against `schema`.
    pub(crate) fn new(expr: Option<&Expr>, schema: &Schema, unknown: UnknownColumn) -> Self {
        let mut c = Compiled { nodes: Vec::new() };
        match expr {
            Some(e) => c.push(e, schema, unknown),
            None => c.nodes.push(Node::True),
        }
        c
    }

    fn push(&mut self, expr: &Expr, schema: &Schema, unknown: UnknownColumn) {
        match expr {
            Expr::And(a, b) | Expr::Or(a, b) => {
                let at = self.nodes.len();
                self.nodes.push(Node::Not); // placeholder until `rhs` is known
                self.push(a, schema, unknown);
                let rhs = self.nodes.len();
                self.push(b, schema, unknown);
                self.nodes[at] = match expr {
                    Expr::And(..) => Node::And { rhs },
                    _ => Node::Or { rhs },
                };
            }
            Expr::Not(e) => {
                self.nodes.push(Node::Not);
                self.push(e, schema, unknown);
            }
            Expr::Cmp { left, op, right } => {
                let op = *op;
                self.nodes
                    .push(match (typed(left, schema), typed(right, schema)) {
                        (Typed::Num(l), Typed::Num(r)) => Node::Num { l, op, r },
                        (Typed::Text(l), Typed::Text(r)) => Node::Text { l, op, r },
                        (Typed::Unknown, _) | (_, Typed::Unknown)
                            if unknown == UnknownColumn::Neutral =>
                        {
                            Node::True
                        }
                        _ => Node::Fail,
                    });
            }
        }
    }

    /// Whether the row decoded into `cells` (schema column order) matches;
    /// `None` exactly where [`eval`] would return an error.
    pub(crate) fn matches(&self, cells: &[Cell<'_>]) -> Option<bool> {
        self.eval_at(0, cells)
    }

    fn eval_at(&self, i: usize, cells: &[Cell<'_>]) -> Option<bool> {
        Some(match &self.nodes[i] {
            Node::And { rhs } => self.eval_at(i + 1, cells)? && self.eval_at(*rhs, cells)?,
            Node::Or { rhs } => self.eval_at(i + 1, cells)? || self.eval_at(*rhs, cells)?,
            Node::Not => !self.eval_at(i + 1, cells)?,
            Node::Num { l, op, r } => holds(*op, num_ord(l.get(cells)?, r.get(cells)?)),
            Node::Text { l, op, r } => holds(*op, l.get(cells)?.cmp(r.get(cells)?)),
            Node::True => true,
            Node::Fail => return None,
        })
    }
}

fn typed(op: &Operand, schema: &Schema) -> Typed {
    match op {
        Operand::Lit(Value::Int(i)) => Typed::Num(Num::Lit(*i as f64)),
        Operand::Lit(Value::Float(f)) => Typed::Num(Num::Lit(*f)),
        Operand::Lit(Value::Str(s)) => Typed::Text(Text::Lit(s.as_str().into())),
        Operand::Col(name) => match schema.column_index(name) {
            None => Typed::Unknown,
            Some(i) => match schema.columns[i].ty {
                ColumnType::Str => Typed::Text(Text::Col(i)),
                ColumnType::Int | ColumnType::Float => Typed::Num(Num::Col(i)),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use crate::sql::parse_predicate;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("score", ColumnType::Float),
                Column::new("name", ColumnType::Str),
            ],
        )
    }

    fn row(id: i64, score: f64, name: &str) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Float(score),
            Value::Str(name.to_string()),
        ])
    }

    fn check(pred: &str, r: &Row) -> bool {
        eval(
            &parse_predicate(pred).unwrap(),
            &schema(),
            r,
            UnknownColumn::Error,
        )
        .unwrap()
    }

    #[test]
    fn numeric_comparisons() {
        let r = row(5, 2.5, "x");
        assert!(check("id = 5", &r));
        assert!(check("id >= 5", &r));
        assert!(!check("id > 5", &r));
        assert!(check("score < 3", &r)); // int literal vs float column
        assert!(check("score <= 2.5", &r));
        assert!(check("id != 4", &r));
    }

    #[test]
    fn string_comparisons() {
        let r = row(1, 0.0, "europe");
        assert!(check("name = 'europe'", &r));
        assert!(!check("name = 'asia'", &r));
        // Lexicographic date-style comparison.
        let dated = Row::new(vec![
            Value::Int(1),
            Value::Float(0.0),
            Value::Str("1998-06-15".into()),
        ]);
        assert!(check("name <= '1998-09-02'", &dated));
        assert!(!check("name <= '1998-01-01'", &dated));
    }

    #[test]
    fn boolean_combinators() {
        let r = row(5, 2.5, "x");
        assert!(check("id = 5 AND score > 2", &r));
        assert!(!check("id = 5 AND score > 3", &r));
        assert!(check("id = 9 OR score > 2", &r));
        assert!(check("NOT id = 9", &r));
    }

    #[test]
    fn column_to_column() {
        let r = row(2, 2.0, "x");
        assert!(check("id = score", &r));
        assert!(!check("id < score", &r));
    }

    #[test]
    fn unknown_column_strict_errors() {
        let r = row(1, 1.0, "x");
        let e = parse_predicate("ghost > 1").unwrap();
        assert_eq!(
            eval(&e, &schema(), &r, UnknownColumn::Error).unwrap_err(),
            EvalError::UnknownColumn("ghost".into())
        );
    }

    #[test]
    fn unknown_column_neutral_skips_join_conditions() {
        // TPC-H Q2-style: join conditions reference other tables; the
        // device applies only the local filter.
        let r = row(1, 1.0, "EUROPE");
        let e = parse_predicate("p_partkey = ps_partkey AND name = 'EUROPE'").unwrap();
        assert!(eval(&e, &schema(), &r, UnknownColumn::Neutral).unwrap());
        let e2 = parse_predicate("p_partkey = ps_partkey AND name = 'ASIA'").unwrap();
        assert!(!eval(&e2, &schema(), &r, UnknownColumn::Neutral).unwrap());
    }

    #[test]
    fn type_mismatch_detected() {
        let r = row(1, 1.0, "x");
        let e = parse_predicate("name > 5").unwrap();
        assert!(matches!(
            eval(&e, &schema(), &r, UnknownColumn::Error).unwrap_err(),
            EvalError::TypeMismatch { .. }
        ));
    }

    /// The compiled form over decoded cells, `Err(())` where it fails.
    fn compiled(pred: &str, r: &Row, unknown: UnknownColumn) -> Result<bool, ()> {
        let s = schema();
        let c = Compiled::new(Some(&parse_predicate(pred).unwrap()), &s, unknown);
        let mut bytes = Vec::new();
        r.encode_into(&mut bytes);
        let mut cur = crate::schema::Cursor {
            bytes: &bytes,
            pos: 0,
        };
        let mut cells = [Cell::Int(0); 3];
        Row::decode_cells(&mut cur, &s, &mut cells).unwrap();
        c.matches(&cells).ok_or(())
    }

    #[test]
    fn compiled_agrees_with_reference() {
        let rows = [
            row(5, 2.5, "x"),
            row(2, 2.0, "europe"),
            row(-1, f64::NAN, ""),
            row(0, -0.0, "ünïcode"),
            row(i64::MAX, 9.223372036854776e18, "1998-06-15"),
        ];
        let preds = [
            "id = 5",
            "score < 3 AND name != 'x'",
            "id = score",
            "id >= score OR NOT name <= '1998-09-02'",
            "score = 0",
            "score != 1",
            "score < 0 OR score >= 0",
            "name < 'ü'",
            "name = ''",
            "9223372036854775807 = score",
            "ghost > 1",
            "id > 100 AND ghost > 1",
            "id < 100 OR ghost > 1",
            "p_partkey = ps_partkey AND name = 'europe'",
            "name > 5",
            "id = 1 AND name > 5",
            "NOT (id = 5 OR name = score)",
            "'a' < 'b'",
            "1 = 1.0",
        ];
        for unknown in [UnknownColumn::Error, UnknownColumn::Neutral] {
            for p in preds {
                let e = parse_predicate(p).unwrap();
                for r in &rows {
                    let want = eval(&e, &schema(), r, unknown).map_err(|_| ());
                    assert_eq!(compiled(p, r, unknown), want, "{p} on {r:?} ({unknown:?})");
                }
            }
        }
    }

    #[test]
    fn compiled_without_predicate_matches_everything() {
        let c = Compiled::new(None, &schema(), UnknownColumn::Error);
        assert_eq!(
            c.matches(&[Cell::Int(0), Cell::Float(0.0), Cell::Str("")]),
            Some(true)
        );
    }
}
