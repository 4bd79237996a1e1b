//! The unified compiler front door.
//!
//! Historically each kernel flavor had its own free function with
//! copy-pasted option plumbing. [`Compiler`] replaces all three:
//!
//! ```
//! use singe::{Compiler, CompileOptions, Variant};
//! use gpu_sim::GpuArch;
//! # use singe::dfg::Dfg;
//! # fn demo(dfg: &Dfg) -> singe::CResult<()> {
//! let arch = GpuArch::kepler_k20c();
//! let compiled = Compiler::new(&arch)
//!     .options(CompileOptions::builder().warps(8).build())
//!     .compile(dfg, Variant::WarpSpecialized)?;
//! # let _ = compiled; Ok(())
//! # }
//! ```

use crate::baseline::baseline_impl;
use crate::codegen::{compile_warp_specialized, Compiled, CompileStats};
use crate::config::CompileOptions;
use crate::dfg::Dfg;
use crate::naive::naive_impl;
use crate::CResult;
use gpu_sim::arch::GpuArch;
use gpu_sim::profile::{EventKind, TraceEvent};

/// Which kernel flavor to emit — the three columns of the paper's §6
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Warp-specialized Singe output (§3–§5).
    WarpSpecialized,
    /// Optimized purely data-parallel baseline (§6's comparison point).
    Baseline,
    /// Warp specialization via a naïve top-level warp switch — no
    /// overlaying (Figure 9's strawman).
    Naive,
}

impl Variant {
    /// Stable display name (report tables, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Variant::WarpSpecialized => "warp-specialized",
            Variant::Baseline => "baseline",
            Variant::Naive => "naive",
        }
    }
}

/// Unified front door over the three kernel compilers: configure once,
/// compile any [`Variant`].
#[derive(Debug, Clone)]
pub struct Compiler {
    arch: GpuArch,
    options: CompileOptions,
}

impl Compiler {
    /// A compiler targeting `arch` with default [`CompileOptions`].
    pub fn new(arch: &GpuArch) -> Compiler {
        Compiler { arch: arch.clone(), options: CompileOptions::default() }
    }

    /// Replace the options (builder-style; returns the configured
    /// compiler).
    #[must_use = "Compiler::options returns the configured compiler"]
    pub fn options(mut self, options: CompileOptions) -> Compiler {
        self.options = options;
        self
    }

    /// The options this compiler will use.
    pub fn options_ref(&self) -> &CompileOptions {
        &self.options
    }

    /// The architecture this compiler targets.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Compile `dfg` as `variant`.
    ///
    /// All variants return the unified [`Compiled`]; for
    /// [`Variant::Baseline`] the kernel has no mapping/overlay stages, so
    /// only the spill statistic is populated.
    pub fn compile(&self, dfg: &Dfg, variant: Variant) -> CResult<Compiled> {
        self.compile_inner(dfg, variant, None)
    }

    /// [`Compiler::compile`], also recording one wall-clock timing span
    /// per pipeline stage (Figure 8's stages for
    /// [`Variant::WarpSpecialized`]; a single span otherwise) in the same
    /// event format the simulator profiler uses, so compile and simulate
    /// phases can land in one Chrome trace. Spans are diagnostics — their
    /// durations are not deterministic, unlike the profiler's cycle
    /// counters.
    pub fn compile_traced(
        &self,
        dfg: &Dfg,
        variant: Variant,
    ) -> CResult<(Compiled, Vec<TraceEvent>)> {
        let mut spans = Vec::new();
        let compiled = self.compile_inner(dfg, variant, Some(&mut spans))?;
        Ok((compiled, spans))
    }

    /// Model-driven schedule search over the full options space
    /// ([`crate::search`]): beam-search candidates scored by the static
    /// model ([`crate::perfmodel`]), simulate only the top-K survivors as
    /// the oracle, seeded at this compiler's options. `inputs_for`
    /// supplies probe-launch inputs per candidate kernel.
    pub fn search(
        &self,
        dfg: &Dfg,
        budget: &crate::search::SearchBudget,
        probe_points: usize,
        inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
    ) -> CResult<crate::search::SearchResult> {
        let space = crate::search::SearchSpace::for_arch(&self.arch);
        crate::search::search_kernel(
            dfg,
            &self.arch,
            &space,
            &space.seeds(&self.options),
            budget,
            probe_points,
            inputs_for,
        )
    }

    fn compile_inner(
        &self,
        dfg: &Dfg,
        variant: Variant,
        spans: Option<&mut Vec<TraceEvent>>,
    ) -> CResult<Compiled> {
        match variant {
            Variant::WarpSpecialized => {
                compile_warp_specialized(dfg, &self.options, &self.arch, spans)
            }
            Variant::Baseline => {
                let mut timer = StageTimer::new(spans);
                let b = baseline_impl(dfg, &self.options, &self.arch)?;
                timer.mark("baseline");
                Ok(Compiled {
                    kernel: b.kernel,
                    stats: CompileStats { spilled_vars: b.spilled_words, ..Default::default() },
                })
            }
            Variant::Naive => {
                let mut timer = StageTimer::new(spans);
                let c = naive_impl(dfg, &self.options, &self.arch)?;
                timer.mark("naive");
                Ok(c)
            }
        }
    }
}

/// Records one wall-clock span per pipeline stage into a [`TraceEvent`]
/// vector (the same format the simulator profiler emits, `cat:
/// "compile"`, timestamps in microseconds since compile start). With no
/// sink attached every call is a no-op.
pub(crate) struct StageTimer<'a> {
    spans: Option<&'a mut Vec<TraceEvent>>,
    start: std::time::Instant,
    prev_us: u64,
}

impl<'a> StageTimer<'a> {
    pub(crate) fn new(spans: Option<&'a mut Vec<TraceEvent>>) -> StageTimer<'a> {
        StageTimer { spans, start: std::time::Instant::now(), prev_us: 0 }
    }

    /// Close the span for the stage that just finished, named `name`.
    pub(crate) fn mark(&mut self, name: &'static str) {
        let Some(spans) = self.spans.as_deref_mut() else { return };
        let now_us = self.start.elapsed().as_micros() as u64;
        spans.push(TraceEvent {
            name: name.into(),
            cat: "compile",
            kind: EventKind::Span,
            ts: self.prev_us,
            dur: now_us.saturating_sub(self.prev_us),
            tid: 0,
        });
        self.prev_us = now_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::viscosity::viscosity_dfg;
    use chemkin::reference::tables::ViscosityTables;
    use chemkin::synth;

    fn small_dfg() -> Dfg {
        let m = synth::via_text(&synth::SynthConfig {
            name: "ctest".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 42,
        });
        viscosity_dfg(&ViscosityTables::build(&m), 4)
    }

    #[test]
    fn front_door_compiles_all_variants() {
        let arch = GpuArch::kepler_k20c();
        let dfg = small_dfg();
        let c = Compiler::new(&arch).options(CompileOptions::builder().warps(4).build());
        for variant in [Variant::WarpSpecialized, Variant::Baseline, Variant::Naive] {
            let out = c.compile(&dfg, variant).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            assert!(!out.kernel.body.is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn traced_compile_reports_figure8_stages() {
        let arch = GpuArch::kepler_k20c();
        let dfg = small_dfg();
        let c = Compiler::new(&arch).options(CompileOptions::with_warps(4));
        let (_, spans) = c.compile_traced(&dfg, Variant::WarpSpecialized).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["validate", "mapping", "schedule", "schedule-verify", "barrier-alloc", "emit",
             "verify"]
        );
        assert!(spans.iter().all(|s| s.cat == "compile" && s.kind == EventKind::Span));
        // Spans tile the timeline: each starts where the previous ended.
        for pair in spans.windows(2) {
            assert_eq!(pair[0].ts + pair[0].dur, pair[1].ts);
        }
    }

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(Variant::WarpSpecialized.name(), "warp-specialized");
        assert_eq!(Variant::Baseline.name(), "baseline");
        assert_eq!(Variant::Naive.name(), "naive");
    }
}
