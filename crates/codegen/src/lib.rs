//! # ks-codegen — HIR → IR lowering with specialization-driven transforms
//!
//! This crate implements the compile-time optimizations the dissertation
//! identifies as the payoff of kernel specialization (§2.4, §4): they all
//! *require fixed values at compile time*, which is exactly what the
//! preprocessor's `-D` defines provide.
//!
//! * [`consteval`] — constant folding & propagation over the typed HIR,
//!   including static *guard elimination* (`if` with a constant condition).
//! * [`unroll`] — full unrolling of counted loops whose bounds folded to
//!   constants. Run-time-evaluated loops stay rolled and pay the loop
//!   setup/iteration/branch overhead in the simulator.
//! * [`scalarize`] — promotion of per-thread local arrays to scalar
//!   registers when (after unrolling) every index is a constant. This is
//!   *register blocking*: NVIDIA GPUs cannot indirectly address registers,
//!   so a dynamically indexed array must live in slow local memory.
//! * [`lower`] — lowering to the PTX-like `ks-ir`.

pub mod consteval;
pub mod lower;
pub mod scalarize;
pub mod unroll;

use ks_lang::hir::Program;

/// Codegen options.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Maximum trip count for full loop unrolling.
    pub unroll_limit: u32,
    /// Maximum element count for local-array scalarization.
    pub scalarize_cap: u32,
    /// Apply HIR-level optimizations at all (`false` ⇒ a "-O0" build used
    /// for differential testing).
    pub optimize: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            unroll_limit: 2048,
            scalarize_cap: 256,
            optimize: true,
        }
    }
}

/// One HIR transform stage: a name for validators and the transform.
type Stage = (&'static str, fn(&mut Program, &CodegenOptions));

/// The HIR pipeline, in order: fold → unroll → fold → scalarize → fold.
const STAGES: [Stage; 5] = [
    ("consteval", |p, _| each(p, consteval::fold_func)),
    ("unroll", |p, o| {
        each(p, |k| unroll::unroll_func(k, o.unroll_limit))
    }),
    ("consteval", |p, _| each(p, consteval::fold_func)),
    ("scalarize", |p, o| {
        each(p, |k| scalarize::scalarize_func(k, o.scalarize_cap))
    }),
    ("consteval", |p, _| each(p, consteval::fold_func)),
];

/// Run the HIR pipeline and lower the result to an IR module, once.
pub fn compile(program: &Program, opts: &CodegenOptions) -> Result<ks_ir::Module, String> {
    if !opts.optimize {
        return lower::lower_program(program);
    }
    let mut prog = program.clone();
    for (_, stage) in STAGES {
        stage(&mut prog, opts);
    }
    lower::lower_program(&prog)
}

/// Like [`compile`], but lowers and reports the module after each HIR
/// transform stage, so a validator can compare consecutive snapshots.
/// The observer first sees `("baseline", <unoptimized lowering>)`, then one
/// call per stage that changed the program; the returned module is always
/// the final stage's lowering, identical to [`compile`]'s.
pub fn compile_observed(
    program: &Program,
    opts: &CodegenOptions,
    obs: &mut dyn FnMut(&'static str, &ks_ir::Module),
) -> Result<ks_ir::Module, String> {
    if !opts.optimize {
        return lower::lower_program(program);
    }
    let mut prog = program.clone();
    let mut module = lower::lower_program(&prog)?;
    obs("baseline", &module);
    for (name, stage) in STAGES {
        stage(&mut prog, opts);
        let next = lower::lower_program(&prog)?;
        if next != module {
            obs(name, &next);
            module = next;
        }
    }
    Ok(module)
}

fn each(p: &mut Program, mut f: impl FnMut(&mut ks_lang::hir::HFunc)) {
    for k in &mut p.kernels {
        f(k);
    }
}
