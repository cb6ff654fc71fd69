//! Differential test: the CSD firmware's in-place filter against the
//! reference tree-walking [`bx_csd::eval`].
//!
//! Random schemas (Int/Float/Str columns), rows with NaN/±0.0/±inf floats and
//! empty or non-ASCII strings spanning several flushed pages plus a staging
//! tail, and random predicates (AND/OR/NOT, column–column, column–literal,
//! mixed types, unknown columns) run under both the strict segment mode and
//! the neutral full-SQL mode, with NAND on and off. The task's status and
//! match count, and the result workspace read back through `CsdReadResult`,
//! must equal filtering the same rows with `eval` and `Row::encode_batch`.

use bx_csd::firmware::{TASK_MODE_FULL_SQL, TASK_MODE_SEGMENT};
use bx_csd::{
    eval, parse_predicate, CmpOp, Column, ColumnType, CsdFirmware, Expr, Operand, Row, Schema,
    UnknownColumn, Value,
};
use bx_hostsim::Nanos;
use bx_nvme::{IoOpcode, Status, SubmissionEntry};
use bx_ssd::{
    CommandOutcome, DeviceDram, FirmwareCtx, FirmwareHandler, Ftl, NandArray, NandConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const TABLE: &str = "t";

struct Rig {
    nand: NandArray,
    ftl: Ftl,
    dram: DeviceDram,
    fw: CsdFirmware,
}

impl Rig {
    fn new(nand_io: bool) -> Self {
        let nand = NandArray::new(NandConfig::small());
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(8 << 20);
        let fw = CsdFirmware::new(&mut dram, nand_io);
        Rig {
            nand,
            ftl,
            dram,
            fw,
        }
    }

    fn call(&mut self, sqe: &SubmissionEntry, payload: Option<&[u8]>) -> CommandOutcome {
        self.fw.handle(
            FirmwareCtx {
                nand: &mut self.nand,
                ftl: &mut self.ftl,
                dram: &mut self.dram,
                now: Nanos::ZERO,
            },
            sqe,
            payload,
        )
    }

    fn load(&mut self, schema: &Schema, rows: &[Row]) {
        let sqe = SubmissionEntry::io(IoOpcode::CsdCreateTable, 1, 1);
        assert!(self.call(&sqe, Some(&schema.encode())).status.is_success());
        let mut payload = (TABLE.len() as u16).to_le_bytes().to_vec();
        payload.extend_from_slice(TABLE.as_bytes());
        payload.extend_from_slice(&Row::encode_batch(rows));
        let sqe = SubmissionEntry::io(IoOpcode::CsdLoadRows, 1, 1);
        assert!(self.call(&sqe, Some(&payload)).status.is_success());
    }

    fn exec(&mut self, mode: u32, task: &str) -> CommandOutcome {
        let mut sqe = SubmissionEntry::io(IoOpcode::CsdExec, 1, 1);
        sqe.set_cdw(14, mode);
        self.call(&sqe, Some(task.as_bytes()))
    }

    fn read_result(&mut self) -> Vec<u8> {
        let mut sqe = SubmissionEntry::io(IoOpcode::CsdReadResult, 1, 1);
        sqe.set_data_len(1 << 20);
        let out = self.call(&sqe, None);
        assert!(out.status.is_success());
        let data = out.response.expect("read-result carries data");
        assert_eq!(data.len(), out.result as usize);
        data
    }
}

/// One generated case: a schema, its rows, an optional predicate and the
/// NAND mode. (The vendored proptest has no flat-map or recursive
/// combinators, so the case is drawn by hand.)
struct Case;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

fn text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..5);
    (0..len)
        .map(|_| pick(rng, &['a', 'b', 'é', '日']))
        .collect()
}

fn value(rng: &mut StdRng, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Int if rng.gen_range(0..4) == 0 => {
            Value::Int(rng.gen_range(i64::MIN..=i64::MAX))
        }
        ColumnType::Int => Value::Int(rng.gen_range(-3..4)),
        ColumnType::Float if rng.gen_range(0..4) == 0 => {
            Value::Float(f64::from_bits(rng.gen_range(0..=u64::MAX)))
        }
        ColumnType::Float => Value::Float(pick(
            rng,
            &[
                f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -1.5,
                0.5,
                2.0,
            ],
        )),
        ColumnType::Str => Value::Str(text(rng)),
    }
}

/// A column of `schema`, an unknown column, or a literal the SQL printer
/// and parser round-trip (a finite number, a string without quotes).
fn operand(rng: &mut StdRng, schema: &Schema) -> Operand {
    match rng.gen_range(0..8) {
        0..=3 => Operand::Col(pick(rng, &schema.columns).name),
        4 => Operand::Col("zz".into()),
        5 => Operand::Lit(Value::Int(rng.gen_range(-3..4))),
        6 => Operand::Lit(Value::Float(pick(rng, &[-1.5, 0.5, 2.0, 1e300]))),
        _ => Operand::Lit(Value::Str(text(rng))),
    }
}

fn expr(rng: &mut StdRng, schema: &Schema, depth: u32) -> Expr {
    let leaf = depth == 0 || rng.gen_range(0..3) == 0;
    let sub = |rng: &mut StdRng| Box::new(expr(rng, schema, depth - 1));
    match if leaf { 0 } else { rng.gen_range(1..4) } {
        0 => Expr::Cmp {
            left: operand(rng, schema),
            op: pick(rng, &OPS),
            right: operand(rng, schema),
        },
        1 => Expr::And(sub(rng), sub(rng)),
        2 => Expr::Or(sub(rng), sub(rng)),
        _ => Expr::Not(sub(rng)),
    }
}

impl Strategy for Case {
    type Value = (Schema, Vec<Row>, Option<Expr>, bool);

    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        let types = [ColumnType::Int, ColumnType::Float, ColumnType::Str];
        let columns = (0..rng.gen_range(1..6))
            .map(|i| Column::new(format!("c{i}"), pick(rng, &types)))
            .collect();
        let schema = Schema::new(TABLE, columns);
        // Up to 1,500 rows: several 4 KB pages plus a tail at any width.
        let rows = (0..rng.gen_range(0..1500))
            .map(|_| Row::new(schema.columns.iter().map(|c| value(rng, c.ty)).collect()))
            .collect();
        let predicate = (rng.gen_range(0..10) != 0).then(|| expr(rng, &schema, 4));
        (schema, rows, predicate, rng.gen_range(0..2) == 1)
    }
}

/// What the device must answer: the match count and `[count][rows…]`, or
/// `None` where `eval` fails on a row the scan reaches.
fn reference(
    schema: &Schema,
    rows: &[Row],
    expr: Option<&Expr>,
    unknown: UnknownColumn,
) -> Option<(u32, Vec<u8>)> {
    let mut matched = Vec::new();
    for r in rows {
        if expr
            .map_or(Ok(true), |e| eval(e, schema, r, unknown))
            .ok()?
        {
            matched.push(r.clone());
        }
    }
    Some((matched.len() as u32, Row::encode_batch(&matched)))
}

fn check(
    rig: &mut Rig,
    mode: u32,
    task: &str,
    want: Option<(u32, Vec<u8>)>,
) -> Result<(), TestCaseError> {
    let out = rig.exec(mode, task);
    match want {
        Some((matches, bytes)) => {
            prop_assert_eq!(out.status, Status::Success, "{}", task);
            prop_assert_eq!(out.result, matches, "{}", task);
            prop_assert!(rig.read_result() == bytes, "result bytes differ: {}", task);
        }
        None => {
            prop_assert_eq!(out.status, Status::CsdBadTask, "{}", task);
            prop_assert!(rig.read_result().is_empty(), "failed task left results");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn firmware_filter_matches_reference_eval(c in Case) {
        let (schema, rows, expr, nand_io) = c;
        let mut rig = Rig::new(nand_io);
        rig.load(&schema, &rows);
        // The reference evaluates what the device parses from the text.
        let text = expr.as_ref().map(Expr::to_string);
        let parsed = text.as_deref().map(|t| parse_predicate(t).expect("printed predicates parse"));

        if let Some(t) = &text {
            let want = reference(&schema, &rows, parsed.as_ref(), UnknownColumn::Error);
            check(&mut rig, TASK_MODE_SEGMENT, &format!("{TABLE}\0{t}"), want)?;
        }
        let sql = match &text {
            Some(t) => format!("SELECT * FROM {TABLE} WHERE {t}"),
            None => format!("SELECT * FROM {TABLE}"),
        };
        let want = reference(&schema, &rows, parsed.as_ref(), UnknownColumn::Neutral);
        check(&mut rig, TASK_MODE_FULL_SQL, &sql, want)?;
    }
}
