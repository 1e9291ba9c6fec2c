//! Local common-subexpression elimination (per-basic-block value
//! numbering). Recomputed address arithmetic — ubiquitous in unrolled
//! specialized kernels and in rolled loops alike — collapses to a single
//! computation. Loads participate too, invalidated by stores/barriers to
//! the same state space.

use ks_ir::{Function, Inst, Operand, Space, VReg};

/// A key describing a pure computation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Key {
    Bin(ks_ir::BinOp, ks_ir::Ty, OpKey, OpKey),
    Un(ks_ir::UnOp, ks_ir::Ty, OpKey),
    Mad(ks_ir::Ty, OpKey, OpKey, OpKey),
    Setp(ks_ir::CmpOp, ks_ir::Ty, OpKey, OpKey),
    Selp(ks_ir::Ty, OpKey, OpKey, VReg),
    Cvt(ks_ir::Ty, ks_ir::Ty, OpKey),
    Special(ks_ir::SpecialReg),
    Ld(Space, ks_ir::Ty, Option<VReg>, i64),
    Tex(u32, ks_ir::Ty, OpKey),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKey {
    Reg(VReg),
    ImmI(i64),
    /// Float immediates keyed by bit pattern.
    ImmF(u32),
}

fn op_key(o: &Operand) -> OpKey {
    match o {
        Operand::Reg(r) => OpKey::Reg(*r),
        Operand::ImmI(v) => OpKey::ImmI(*v),
        Operand::ImmF(v) => OpKey::ImmF(v.to_bits()),
    }
}

fn key_of(i: &Inst) -> Option<Key> {
    Some(match i {
        Inst::Bin { op, ty, a, b, .. } => Key::Bin(*op, *ty, op_key(a), op_key(b)),
        Inst::Un { op, ty, a, .. } => Key::Un(*op, *ty, op_key(a)),
        Inst::Mad { ty, a, b, c, .. } => Key::Mad(*ty, op_key(a), op_key(b), op_key(c)),
        Inst::Setp { cmp, ty, a, b, .. } => Key::Setp(*cmp, *ty, op_key(a), op_key(b)),
        Inst::Selp { ty, a, b, pred, .. } => Key::Selp(*ty, op_key(a), op_key(b), *pred),
        Inst::Cvt {
            dst_ty,
            src_ty,
            src,
            ..
        } => Key::Cvt(*dst_ty, *src_ty, op_key(src)),
        Inst::Special { reg, .. } => Key::Special(*reg),
        Inst::Ld {
            space, ty, addr, ..
        } => Key::Ld(*space, *ty, addr.base, addr.offset),
        Inst::Tex { ty, tex, idx, .. } => Key::Tex(*tex, *ty, op_key(idx)),
        _ => return None,
    })
}

fn key_uses(k: &Key, mut f: impl FnMut(VReg)) {
    let mut op = |o: &OpKey| {
        if let OpKey::Reg(r) = o {
            f(*r)
        }
    };
    match k {
        Key::Bin(_, _, a, b) | Key::Setp(_, _, a, b) => {
            op(a);
            op(b);
        }
        Key::Un(_, _, a) | Key::Cvt(_, _, a) => op(a),
        Key::Mad(_, a, b, c) => {
            op(a);
            op(b);
            op(c);
        }
        Key::Selp(_, a, b, p) => {
            op(a);
            op(b);
            f(*p);
        }
        Key::Special(_) => {}
        Key::Ld(_, _, base, _) => {
            if let Some(b) = base {
                f(*b)
            }
        }
        Key::Tex(_, _, i) => op(i),
    }
}

/// Maximum distance (in instructions) across which a value is reused.
/// Unbounded reuse would stretch live ranges across whole unrolled bodies
/// and explode register pressure — real compilers trade recomputation for
/// registers exactly like this.
const REUSE_WINDOW: usize = 24;

/// An available value: `key` is held in `reg`, defined at block position
/// `at`.
struct Avail {
    key: Key,
    reg: VReg,
    at: usize,
}

/// One CSE pass; returns the number of instructions replaced by copies.
///
/// The availability table only holds entries inside the reuse window:
/// an entry older than [`REUSE_WINDOW`] can never be reused (a hit on it
/// would be re-inserted anyway), so it is dropped. Each position inserts
/// at most one entry, so lookup and kill scan at most
/// `REUSE_WINDOW + 1` entries, and a pass is linear in block length.
pub fn run(f: &mut Function) -> usize {
    let mut replaced = 0;
    // Ordered by `at`; keys are unique (a key is inserted only on a miss).
    let mut avail: Vec<Avail> = Vec::with_capacity(REUSE_WINDOW + 1);
    for b in &mut f.blocks {
        avail.clear();
        for (pos, i) in b.insts.iter_mut().enumerate() {
            let expired = avail.partition_point(|e| pos - e.at > REUSE_WINDOW);
            avail.drain(..expired);
            // Invalidate loads when memory may change.
            match i {
                Inst::St { space, .. } => {
                    let s = *space;
                    avail.retain(|e| {
                        // Texture fetches read global memory: a global
                        // store may alias them (the simulator is
                        // coherent, unlike real texture caches).
                        !(matches!(e.key, Key::Ld(sp, ..) if sp == s)
                            || (s == Space::Global && matches!(e.key, Key::Tex(..))))
                    });
                }
                Inst::Bar => {
                    // A barrier publishes other threads' shared *and*
                    // global (and thus texture-visible) writes.
                    avail.retain(|e| {
                        !matches!(
                            e.key,
                            Key::Ld(Space::Shared | Space::Global, ..) | Key::Tex(..)
                        )
                    });
                }
                _ => {}
            }
            let Some(dst) = i.def() else { continue };
            if let Some(key) = key_of(i) {
                match avail.iter().find(|e| e.key == key) {
                    Some(e) => {
                        let ty = f.vreg_types[dst.0 as usize];
                        *i = Inst::Mov {
                            ty,
                            dst,
                            src: Operand::Reg(e.reg),
                        };
                        replaced += 1;
                    }
                    None => {
                        avail.push(Avail {
                            key,
                            reg: dst,
                            at: pos,
                        });
                    }
                }
            }
            // Redefinition kills every expression that used the old value
            // (including one this instruction just inserted, if it reads
            // its own destination), and any expression cached in this
            // register other than the one this instruction produced (the
            // only entry defined at `pos`).
            avail.retain(|e| !key_reads(&e.key, dst) && (e.reg != dst || e.at == pos));
        }
    }
    replaced
}

fn key_reads(k: &Key, r: VReg) -> bool {
    let mut reads = false;
    key_uses(k, |u| reads |= u == r);
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    fn mk(insts: Vec<Inst>, tys: Vec<Ty>) -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                insts,
                term: Terminator::Ret,
            }],
            vreg_types: tys,
            shared: vec![],
            local_bytes: 0,
        }
    }

    #[test]
    fn duplicate_arithmetic_collapses() {
        // r1 = r0*4; r2 = r0*4  →  r2 = mov r1
        let f_insts = vec![
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::S32,
                dst: VReg(1),
                a: VReg(0).into(),
                b: Operand::ImmI(4),
            },
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::S32,
                dst: VReg(2),
                a: VReg(0).into(),
                b: Operand::ImmI(4),
            },
        ];
        let mut f = mk(f_insts, vec![Ty::S32; 3]);
        assert_eq!(run(&mut f), 1);
        assert!(matches!(
            f.blocks[0].insts[1],
            Inst::Mov {
                src: Operand::Reg(VReg(1)),
                ..
            }
        ));
    }

    #[test]
    fn redefinition_invalidates() {
        // r1 = r0+1; r0 = 9; r2 = r0+1  → r2 must NOT reuse r1.
        let insts = vec![
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: VReg(1),
                a: VReg(0).into(),
                b: Operand::ImmI(1),
            },
            Inst::Mov {
                ty: Ty::S32,
                dst: VReg(0),
                src: Operand::ImmI(9),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: VReg(2),
                a: VReg(0).into(),
                b: Operand::ImmI(1),
            },
        ];
        let mut f = mk(insts, vec![Ty::S32; 3]);
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn self_update_is_never_available() {
        // r0 = r0+1; r0 = r0+1  → the second add reads the first's result,
        // so it is a new value, not a copy of r0.
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::S32,
            dst: VReg(0),
            a: VReg(0).into(),
            b: Operand::ImmI(1),
        };
        let mut f = mk(vec![add.clone(), add], vec![Ty::S32]);
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn reuse_stops_at_the_window() {
        // r1 = r0*3, REUSE_WINDOW unrelated movs, then r0*3 twice: the
        // first repeat is out of the window and recomputes; the second
        // reuses that recomputation.
        let mul = |dst| Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::S32,
            dst: VReg(dst),
            a: VReg(0).into(),
            b: Operand::ImmI(3),
        };
        let mut insts = vec![mul(1)];
        for _ in 0..REUSE_WINDOW {
            insts.push(Inst::Mov {
                ty: Ty::S32,
                dst: VReg(2),
                src: Operand::ImmI(7),
            });
        }
        insts.push(mul(3));
        insts.push(mul(4));
        let mut f = mk(insts, vec![Ty::S32; 5]);
        assert_eq!(run(&mut f), 1);
        let last = &f.blocks[0].insts;
        assert!(matches!(last[REUSE_WINDOW + 1], Inst::Bin { .. }));
        assert!(matches!(
            last[REUSE_WINDOW + 2],
            Inst::Mov {
                src: Operand::Reg(VReg(3)),
                ..
            }
        ));
    }

    #[test]
    fn loads_cse_until_store() {
        let addr = Address::reg(VReg(0));
        let insts = vec![
            Inst::Ld {
                space: Space::Global,
                ty: Ty::F32,
                dst: VReg(1),
                addr,
            },
            Inst::Ld {
                space: Space::Global,
                ty: Ty::F32,
                dst: VReg(2),
                addr,
            },
            Inst::St {
                space: Space::Global,
                ty: Ty::F32,
                addr,
                src: Operand::ImmF(0.0),
            },
            Inst::Ld {
                space: Space::Global,
                ty: Ty::F32,
                dst: VReg(3),
                addr,
            },
        ];
        let mut f = mk(
            insts,
            vec![Ty::Ptr(Space::Global), Ty::F32, Ty::F32, Ty::F32],
        );
        assert_eq!(run(&mut f), 1, "only the pre-store reload may CSE");
        assert!(matches!(f.blocks[0].insts[1], Inst::Mov { .. }));
        assert!(matches!(f.blocks[0].insts[3], Inst::Ld { .. }));
    }

    #[test]
    fn shared_loads_invalidate_at_barrier() {
        let addr = Address::abs(0);
        let insts = vec![
            Inst::Ld {
                space: Space::Shared,
                ty: Ty::F32,
                dst: VReg(0),
                addr,
            },
            Inst::Bar,
            Inst::Ld {
                space: Space::Shared,
                ty: Ty::F32,
                dst: VReg(1),
                addr,
            },
        ];
        let mut f = mk(insts, vec![Ty::F32, Ty::F32]);
        assert_eq!(run(&mut f), 0, "barrier publishes other threads' writes");
    }

    #[test]
    fn special_registers_cse() {
        let insts = vec![
            Inst::Special {
                dst: VReg(0),
                reg: SpecialReg::TidX,
            },
            Inst::Special {
                dst: VReg(1),
                reg: SpecialReg::TidX,
            },
        ];
        let mut f = mk(insts, vec![Ty::U32, Ty::U32]);
        assert_eq!(run(&mut f), 1);
    }
}
