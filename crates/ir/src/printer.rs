//! PTX-style textual rendering of modules, for documentation, debugging,
//! and the RE-vs-SK listings contrast (Appendices C and D of the paper).

use crate::inst::{Inst, Operand, Terminator};
use crate::module::{Function, Module};
use std::fmt::{self, Write};

/// An operand in PTX syntax, formatted in place.
struct Op<'a>(&'a Operand);

impl fmt::Display for Op<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmI(v) => write!(f, "{v}"),
            Operand::ImmF(v) => write!(f, "0f{:08X} /*{v}*/", v.to_bits()),
        }
    }
}

/// Render a single instruction as a PTX-flavoured line.
pub fn print_inst(i: &Inst) -> String {
    let mut s = String::new();
    write_inst(&mut s, i);
    s
}

/// Append [`print_inst`]'s rendering of `i` to `s`.
fn write_inst(s: &mut String, i: &Inst) {
    let _ = match i {
        Inst::Mov { ty, dst, src } => write!(s, "mov.{ty} \t{dst}, {};", Op(src)),
        Inst::Bin {
            op: o,
            ty,
            dst,
            a,
            b,
        } => write!(s, "{}.{ty} \t{dst}, {}, {};", o.mnemonic(), Op(a), Op(b)),
        Inst::Un { op: o, ty, dst, a } => write!(s, "{}.{ty} \t{dst}, {};", o.mnemonic(), Op(a)),
        Inst::Mad { ty, dst, a, b, c } => {
            write!(s, "mad.lo.{ty} \t{dst}, {}, {}, {};", Op(a), Op(b), Op(c))
        }
        Inst::Setp { cmp, ty, dst, a, b } => write!(
            s,
            "setp.{}.{ty} \t{dst}, {}, {};",
            cmp.mnemonic(),
            Op(a),
            Op(b)
        ),
        Inst::Selp {
            ty,
            dst,
            a,
            b,
            pred,
        } => write!(s, "selp.{ty} \t{dst}, {}, {}, {pred};", Op(a), Op(b)),
        Inst::Cvt {
            dst_ty,
            src_ty,
            dst,
            src,
        } => write!(s, "cvt.{dst_ty}.{src_ty} \t{dst}, {};", Op(src)),
        Inst::Ld {
            space,
            ty,
            dst,
            addr,
        } => write!(s, "ld.{space}.{ty} \t{dst}, {addr};"),
        Inst::St {
            space,
            ty,
            addr,
            src,
        } => write!(s, "st.{space}.{ty} \t{addr}, {};", Op(src)),
        Inst::Bar => write!(s, "bar.sync \t0;"),
        Inst::Special { dst, reg } => write!(s, "mov.u32 \t{dst}, {};", reg.name()),
        Inst::Tex { ty, dst, tex, idx } => {
            write!(s, "tex.1d.{ty} \t{dst}, tex{tex}, {};", Op(idx))
        }
    };
}

/// Append the terminator's lines, each tab-indented and newline-ended.
fn write_term(s: &mut String, t: &Terminator) {
    let _ = match t {
        Terminator::Br { target } => writeln!(s, "\tbra \t${target};"),
        Terminator::CondBr {
            pred,
            negate,
            then_t,
            else_t,
        } => {
            let neg = if *negate { "!" } else { "" };
            writeln!(s, "\t@{neg}{pred} bra \t${then_t};\n\tbra \t${else_t};")
        }
        Terminator::Ret => writeln!(s, "\tret;"),
    };
}

/// Render a function in PTX-like syntax.
pub fn print_function(f: &Function) -> String {
    let mut s = String::new();
    write_function(&mut s, f);
    s
}

/// Append [`print_function`]'s rendering of `f` to `s`.
fn write_function(s: &mut String, f: &Function) {
    let _ = write!(s, ".entry {} (", f.name);
    for (k, p) in f.params.iter().enumerate() {
        let sep = if k > 0 { ", " } else { "" };
        let _ = write!(s, "{sep}.param .{} {}", p.ty, p.name);
    }
    let _ = writeln!(s, ")\n{{\n\t.reg \t%r<{}>;", f.num_vregs());
    for sh in &f.shared {
        let _ = writeln!(s, "\t.shared .align 4 .b8 {}[{}];", sh.name, sh.size_bytes);
    }
    if f.local_bytes > 0 {
        let _ = writeln!(s, "\t.local .align 4 .b8 __local_depot[{}];", f.local_bytes);
    }
    for b in &f.blocks {
        let _ = writeln!(s, "${}:", b.id);
        for i in &b.insts {
            s.push('\t');
            write_inst(s, i);
            s.push('\n');
        }
        write_term(s, &b.term);
    }
    s.push_str("}\n");
}

/// Render a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "//\n// Generated by ks-codegen (PTX-like listing)\n//");
    for c in &m.consts {
        let _ = writeln!(s, ".const .align 4 .b8 {}[{}];", c.name, c.size_bytes);
    }
    for f in &m.functions {
        s.push('\n');
        write_function(&mut s, f);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::*;
    use crate::module::*;
    use crate::types::*;

    #[test]
    fn renders_ptx_like_listing() {
        let mut f = Function {
            name: "mathTest".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: Ty::Ptr(Space::Global),
                offset: 0,
            }],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![SharedDecl {
                name: "tile".into(),
                offset: 0,
                size_bytes: 64,
            }],
            local_bytes: 0,
        };
        let r0 = f.new_vreg(Ty::U32);
        let r1 = f.new_vreg(Ty::U32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: r0,
                    reg: SpecialReg::TidX,
                },
                Inst::Bin {
                    op: BinOp::Shl,
                    ty: Ty::U32,
                    dst: r1,
                    a: r0.into(),
                    b: Operand::ImmI(7),
                },
            ],
            term: Terminator::Ret,
        });
        let text = print_function(&f);
        assert!(text.contains(".entry mathTest"));
        assert!(text.contains("mov.u32 \t%r0, %tid.x;"));
        assert!(text.contains("shl.u32 \t%r1, %r0, 7;"));
        assert!(text.contains(".shared .align 4 .b8 tile[64];"));
        assert!(text.contains("ret;"));
    }

    #[test]
    fn module_listing_includes_consts_and_functions() {
        let m = Module {
            functions: vec![Function {
                name: "k".into(),
                params: vec![],
                blocks: vec![BasicBlock {
                    id: BlockId(0),
                    insts: vec![],
                    term: Terminator::Ret,
                }],
                vreg_types: vec![],
                shared: vec![],
                local_bytes: 8,
            }],
            consts: vec![ConstDecl {
                name: "filt".into(),
                offset: 0,
                size_bytes: 128,
            }],
            textures: vec![],
        };
        let text = print_module(&m);
        assert!(text.contains(".const .align 4 .b8 filt[128];"));
        assert!(text.contains(".entry k ()"));
        assert!(text.contains(".local .align 4 .b8 __local_depot[8];"));
    }

    #[test]
    fn float_immediates_render_bits() {
        let i = Inst::Mov {
            ty: Ty::F32,
            dst: VReg(0),
            src: Operand::ImmF(1.0),
        };
        let s = print_inst(&i);
        assert!(s.contains("0f3F800000"), "{s}");
    }
}
