//! Re-driving the compiler's public stage functions on an op's source
//! and defines, so each stage can be timed by the benchmark's own clock.
//!
//! The stages run in the order `ks_core::Compiler` runs them on a cache
//! miss with analysis and validation off: lex + preprocess (with the
//! `__CUDA_ARCH__` define the compiler adds), parse, sema, lower,
//! optimize, register allocation, PTX print. The re-driven PTX must equal
//! the compiler's, otherwise the timings describe some other compile.

use ks_core::{Compiler, Defines};
use ks_sim::DeviceConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Optimizer passes in pipeline order, as the observer reports them.
pub const PASSES: [&str; 5] = ["constfold", "strength", "addrfold", "cse", "dce"];

#[derive(Debug, Clone, Default)]
pub struct Stages {
    /// A full `Compiler::compile` of the same key on a scratch compiler.
    pub compile: Duration,
    pub preproc: Duration,
    pub parse: Duration,
    pub sema: Duration,
    pub lower: Duration,
    pub opt: Duration,
    /// Time attributed to each pass: from the previous observer callback
    /// (or the function's start) to the callback reporting that pass.
    pub passes: [Duration; 5],
    pub regalloc: Duration,
    pub print: Duration,
    /// Instructions after lowering, before optimization.
    pub ir_insts: usize,
    pub pass_applications: usize,
}

impl Stages {
    /// Sum of the re-driven stage times (what `compile` spends outside
    /// them is the compile service's own work).
    pub fn stage_total(&self) -> Duration {
        self.preproc + self.parse + self.sema + self.lower + self.opt + self.regalloc + self.print
    }
}

/// Re-drive every stage of compiling `source` under `defines` for
/// `device`; `ptx` is the compiler's output to compare against.
pub fn compile_stages(
    device: &DeviceConfig,
    source: &str,
    defines: &Defines,
    ptx: &str,
) -> Result<Stages, String> {
    let mut s = Stages::default();
    let scratch = Compiler::new(device.clone());
    let t = Instant::now();
    scratch
        .compile(source, defines)
        .map_err(|e| format!("re-driven compile: {e}"))?;
    s.compile = t.elapsed();

    let mut all: Vec<(String, String)> = vec![(
        "__CUDA_ARCH__".to_string(),
        format!("{}{}0", device.cc_major, device.cc_minor),
    )];
    all.extend(defines.items().iter().cloned());
    fn e(stage: &'static str) -> impl Fn(ks_lang::LangError) -> String {
        move |err| format!("re-driven {stage}: {err}")
    }

    let t = Instant::now();
    let toks = ks_lang::lexer::lex(source).map_err(e("lex"))?;
    let pp = ks_lang::preproc::preprocess(toks, &all).map_err(e("preprocess"))?;
    s.preproc = t.elapsed();
    let t = Instant::now();
    let unit = ks_lang::parser::parse(pp).map_err(e("parse"))?;
    s.parse = t.elapsed();
    let t = Instant::now();
    let program = ks_lang::sema::check(&unit).map_err(e("sema"))?;
    s.sema = t.elapsed();

    let t = Instant::now();
    let mut module = ks_codegen::compile(&program, &ks_codegen::CodegenOptions::default())
        .map_err(|err| format!("re-driven lower: {err}"))?;
    s.lower = t.elapsed();
    s.ir_insts = module.functions.iter().map(|f| f.static_inst_count()).sum();

    let cfg = ks_opt::OptConfig::default();
    let t = Instant::now();
    for f in module.functions.iter_mut() {
        let mut last = Instant::now();
        ks_opt::optimize_with_observer(f, &cfg, &mut |pass, _| {
            let now = Instant::now();
            if let Some(i) = PASSES.iter().position(|p| *p == pass) {
                s.passes[i] += now - last;
            }
            s.pass_applications += 1;
            last = now;
        });
    }
    s.opt = t.elapsed();

    let t = Instant::now();
    for f in &module.functions {
        std::hint::black_box(ks_sim::allocate(f));
    }
    s.regalloc = t.elapsed();
    let t = Instant::now();
    let printed = ks_ir::printer::print_module(&module);
    s.print = t.elapsed();
    if printed != ptx {
        return Err("re-driven PTX differs from the compiler's".to_string());
    }
    Ok(s)
}

/// Re-drive a background specialization on a scratch compiler:
/// `spawn_compile` to `CompileTicket::wait`.
pub fn promotion(
    device: &DeviceConfig,
    source: &str,
    defines: &Defines,
) -> Result<Duration, String> {
    let scratch = Arc::new(Compiler::new(device.clone()));
    let t = Instant::now();
    scratch
        .spawn_compile(source, defines)
        .wait()
        .map_err(|e| format!("re-driven promotion: {e}"))?;
    Ok(t.elapsed())
}
