//! Dead-code elimination. Removes instructions whose results are never
//! used and which have no side effects, so chains die completely.
//! In a fully specialized kernel this is the pass that deletes the
//! parameter-space loads and special-register reads that constant
//! propagation made redundant.

use ks_ir::Function;

/// No instruction (end of a def chain).
const NONE: u32 = u32::MAX;

/// Remove dead instructions; returns how many were removed in total.
///
/// One use-count pass plus a worklist of registers whose count reached
/// zero: every side-effect-free definition of such a register dies, and
/// its operands lose one use each. Removal is monotone (a count never
/// rises), so this removes exactly the set a rescan-until-stable loop
/// would, in time linear in the function.
pub fn run(f: &mut Function) -> usize {
    let n = f.num_vregs();
    let mut uses = vec![0u32; n];
    // Instructions in program order, with every removable definition of
    // a register chained from `first_def[reg]` through `next_def`.
    let insts: Vec<_> = f.blocks.iter().flat_map(|b| &b.insts).collect();
    let mut first_def = vec![NONE; n];
    let mut next_def = vec![NONE; insts.len()];
    for (g, i) in insts.iter().enumerate() {
        i.for_each_use(|r| uses[r.0 as usize] += 1);
        if let Some(d) = i.def().filter(|_| !i.has_side_effect()) {
            next_def[g] = first_def[d.0 as usize];
            first_def[d.0 as usize] = g as u32;
        }
    }
    for b in &f.blocks {
        if let Some(p) = b.term.use_reg() {
            uses[p.0 as usize] += 1;
        }
    }
    let mut work: Vec<usize> = (0..n)
        .filter(|&r| uses[r] == 0 && first_def[r] != NONE)
        .collect();
    let mut dead = vec![false; insts.len()];
    let mut removed = 0;
    while let Some(r) = work.pop() {
        let mut g = first_def[r];
        while g != NONE {
            dead[g as usize] = true;
            removed += 1;
            insts[g as usize].for_each_use(|u| {
                let c = &mut uses[u.0 as usize];
                *c -= 1;
                if *c == 0 && first_def[u.0 as usize] != NONE {
                    work.push(u.0 as usize);
                }
            });
            g = next_def[g as usize];
        }
    }
    if removed > 0 {
        let mut dead = dead.into_iter();
        for b in &mut f.blocks {
            b.insts.retain(|_| !dead.next().unwrap_or(false));
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    #[test]
    fn removes_dead_chain_but_keeps_stores_and_barriers() {
        let mut f = Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let a = f.new_vreg(Ty::S32);
        let b = f.new_vreg(Ty::S32);
        let live = f.new_vreg(Ty::F32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                // dead chain: a -> b -> nothing
                Inst::Mov {
                    ty: Ty::S32,
                    dst: a,
                    src: Operand::ImmI(1),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::S32,
                    dst: b,
                    a: a.into(),
                    b: Operand::ImmI(1),
                },
                // live value feeding a store
                Inst::Mov {
                    ty: Ty::F32,
                    dst: live,
                    src: Operand::ImmF(2.0),
                },
                Inst::Bar,
                Inst::St {
                    space: Space::Global,
                    ty: Ty::F32,
                    addr: Address::abs(0),
                    src: live.into(),
                },
            ],
            term: Terminator::Ret,
        });
        let removed = run(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(f.blocks[0].insts.iter().any(|i| matches!(i, Inst::Bar)));
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::St { .. })));
    }

    #[test]
    fn keeps_branch_predicate() {
        let mut f = Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let p = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![Inst::Setp {
                cmp: CmpOp::Lt,
                ty: Ty::S32,
                dst: p,
                a: Operand::ImmI(0),
                b: Operand::ImmI(1),
            }],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(1),
            },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![],
            term: Terminator::Ret,
        });
        assert_eq!(run(&mut f), 0);
    }
}
