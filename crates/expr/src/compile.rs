//! Tests of forward-only evaluation through a compiled tape.
//!
//! Candidate scoring compiles a sketch's feature roots once with
//! [`CompiledGradTape::compile`] and then, per candidate, runs
//! [`CompiledGradTape::forward`] into a reused value buffer and copies the
//! roots out with [`CompiledGradTape::write_roots`] into a reused output
//! buffer. These tests pin that path against the whole-pool interpreter
//! and check that compilation keeps only live, deduplicated nodes.

mod tests {
    use crate::tape::CompiledGradTape;
    use crate::{ExprPool, VarTable};

    /// Evaluates every root of `tape` at one point through the scoring path:
    /// `forward` into `vals`, then `write_roots` into `out`.
    fn eval_write(tape: &CompiledGradTape, at: &[f64], vals: &mut Vec<f64>, out: &mut Vec<f64>) {
        tape.forward(at, vals);
        tape.write_roots(vals, 1, 0, out);
    }

    #[test]
    fn compiled_matches_interpreter() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let vy = vars.fresh("y");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let y = p.var(vy);
        let xy = p.mul(x, y);
        let l = p.log1p(xy);
        let zero = p.constf(0.0);
        let m = p.max(x, zero);
        let c = p.cmp(crate::CmpOp::Gt, y, x);
        let s = p.select(c, l, m);
        let tape = CompiledGradTape::compile(&p, &[l, m, s]);
        let (mut vals, mut out) = (Vec::new(), Vec::new());
        for at in [[2.0, 3.0], [5.0, 1.0], [0.5, 4.0]] {
            let full = p.eval_all(&at);
            eval_write(&tape, &at, &mut vals, &mut out);
            assert_eq!(out[0].to_bits(), full[l.index()].to_bits());
            assert_eq!(out[1].to_bits(), full[m.index()].to_bits());
            assert_eq!(out[2].to_bits(), full[s.index()].to_bits());
        }
    }

    #[test]
    fn tape_only_contains_reachable_nodes() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        // Build a large dead sub-DAG.
        let mut dead = x;
        for i in 0..100 {
            let c = p.constf(i as f64);
            dead = p.add(dead, c);
        }
        let live = p.mul(x, x);
        let tape = CompiledGradTape::compile(&p, &[live]);
        assert!(tape.len() <= 2, "tape has {} instrs", tape.len());
        assert_eq!(tape.eval(&[3.0]), vec![9.0]);
    }

    #[test]
    fn scratch_reuse_is_consistent() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let sq = p.mul(x, x);
        let tape = CompiledGradTape::compile(&p, &[sq]);
        let mut vals = Vec::new();
        for i in 1..50 {
            tape.forward(&[i as f64], &mut vals);
            assert_eq!(tape.root_value(&vals, 1, 0, 0), (i * i) as f64);
        }
    }

    #[test]
    fn eval_write_reuses_output_buffer() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let sq = p.mul(x, x);
        let cube = p.mul(sq, x);
        let tape = CompiledGradTape::compile(&p, &[sq, cube]);
        let (mut vals, mut out) = (Vec::new(), Vec::new());
        for i in 1..20 {
            eval_write(&tape, &[i as f64], &mut vals, &mut out);
            assert_eq!(out, vec![(i * i) as f64, (i * i * i) as f64]);
        }
    }

    #[test]
    fn shared_subterms_evaluated_once() {
        let mut vars = VarTable::new();
        let vx = vars.fresh("x");
        let mut p = ExprPool::new();
        let x = p.var(vx);
        let e = p.exp(x);
        let a = p.add(e, e);
        let b = p.mul(e, e);
        let tape = CompiledGradTape::compile(&p, &[a, b]);
        // x, exp, add, mul = 4 instructions (exp not duplicated).
        assert_eq!(tape.len(), 4);
        assert_eq!(tape.eval(&[0.0]), vec![2.0, 1.0]);
    }
}
