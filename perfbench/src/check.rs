//! Output checks. Every check runs outside the timed request so its cost
//! never lands in a latency; its own cost is reported as
//! `check.reference.ms`.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::reference::{reference_chemistry, reference_diffusion, reference_viscosity};
use chemkin::state::GridState;
use chemkin::Mechanism;
use singe::kernels::{chemistry, diffusion, viscosity};
use singe_serve::KernelId;

/// Largest error a compiled kernel may show against the CPU reference.
pub const TOLERANCE: f64 = 1e-10;

/// Largest relative error of `got` against `want`. Entries far below the
/// array's own magnitude (chemistry rates that cancel to near zero) are
/// compared relative to a millionth of the largest entry instead of
/// themselves. A length mismatch or a non-finite value is an infinite
/// error.
pub fn max_rel_err(want: &[f64], got: &[f64]) -> f64 {
    if want.len() != got.len() || want.is_empty() {
        return f64::INFINITY;
    }
    let scale = want.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    let floor = (1e-6 * scale).max(f64::MIN_POSITIVE);
    want.iter().zip(got).fold(0.0f64, |worst, (w, g)| {
        let e = (g - w).abs() / w.abs().max(floor);
        if e.is_nan() {
            f64::INFINITY
        } else {
            worst.max(e)
        }
    })
}

/// The CPU reference result for `kernel` over `grid`, laid out like the
/// kernel's output array.
pub fn reference(kernel: KernelId, m: &Mechanism, grid: &GridState) -> Vec<f64> {
    match kernel {
        KernelId::Viscosity => reference_viscosity(&ViscosityTables::build(m), grid),
        KernelId::Diffusion => reference_diffusion(&DiffusionTables::build(m), grid),
        KernelId::Chemistry => reference_chemistry(&ChemistrySpec::build(m), grid),
    }
}

/// Index of the kernel's output array among its global arrays.
pub fn output_array(kernel: KernelId) -> usize {
    match kernel {
        KernelId::Viscosity => viscosity::ARR_OUT as usize,
        KernelId::Diffusion => diffusion::ARR_OUT as usize,
        KernelId::Chemistry => chemistry::ARR_OUT as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
    use singe::kernels::launch_arrays;
    use singe::{Compiler, Variant};

    /// Compile and run one small kernel, returning the reference and the
    /// simulated output.
    fn run(kernel: KernelId) -> (Vec<f64>, Vec<f64>) {
        let cfg = gen::synth_config(gen::Size::Farm, "chk".into(), 11, 11);
        let m = gen::parse("chk", &gen::mechanism_text(&cfg)).expect("parses");
        let arch = gpu_sim::GpuArch::kepler_k20c();
        let n = m.n_transported();
        let (opts, warps) = gen::build_options(kernel, Variant::WarpSpecialized, n, &arch);
        let dfg = gen::dfg(kernel, &m, warps);
        let k = Compiler::new(&arch)
            .options(opts)
            .compile(&dfg, Variant::WarpSpecialized)
            .unwrap()
            .kernel;
        let g = gen::grid(k.points_per_cta, n, 3);
        let arrays = launch_arrays(&k.global_arrays, &g).unwrap();
        let out = launch(
            &k,
            &arch,
            &LaunchInputs { arrays },
            k.points_per_cta,
            LaunchMode::Full,
        )
        .unwrap();
        (
            reference(kernel, &m, &g),
            out.outputs[output_array(kernel)].clone(),
        )
    }

    #[test]
    fn checker_accepts_simulated_outputs_and_rejects_a_perturbed_array() {
        for kernel in gen::KERNELS {
            let (want, mut got) = run(kernel);
            assert!(
                max_rel_err(&want, &got) <= TOLERANCE,
                "{kernel:?} should pass"
            );
            let i = (0..want.len())
                .max_by(|&a, &b| want[a].abs().total_cmp(&want[b].abs()))
                .unwrap();
            got[i] *= 1.0 + 1e-8;
            assert!(
                max_rel_err(&want, &got) > TOLERANCE,
                "{kernel:?} perturbation missed"
            );
        }
    }

    #[test]
    fn checker_rejects_wrong_lengths_and_nan() {
        assert_eq!(max_rel_err(&[1.0, 2.0], &[1.0]), f64::INFINITY);
        assert_eq!(max_rel_err(&[1.0, 2.0], &[1.0, f64::NAN]), f64::INFINITY);
        assert_eq!(max_rel_err(&[], &[]), f64::INFINITY);
    }
}
