//! Seeded input generation: mechanism shapes, CHEMKIN/THERMO/TRANSPORT/QSSA
//! text, request plans and launch grids. Everything here is a pure function
//! of the benchmark seed, so the same seed replays the same inputs.

use chemkin::parser::parse_mechanism;
use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::state::{GridDims, GridState};
use chemkin::synth::{synthesize, MechanismFiles, SynthConfig};
use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::{CompileOptions, Dfg, Variant};
use singe_serve::{default_options, ArchId, KernelId};

/// SplitMix64: tiny, dependency-free and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent stream seed from a parent seed and a label.
pub fn mix(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Mechanism size classes: a small compile-farm mechanism and the two
/// Figure 3 shapes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Farm,
    Dme,
    Heptane,
}

impl Size {
    pub const ALL: [Size; 3] = [Size::Farm, Size::Dme, Size::Heptane];
}

/// A synth config of the given size class. Farm mechanisms take one of 30
/// shapes (10-15 species) picked by `shape`; DME (39/175) and heptane
/// (68/283) shapes are fixed. Only the coefficients depend on `seed`, so
/// the work a workload does is the same for every seed.
pub fn synth_config(size: Size, name: String, shape: usize, seed: u64) -> SynthConfig {
    let (n_species, n_reactions, n_qssa, n_stiff) = match size {
        Size::Farm => {
            let i = shape % 30;
            (10 + i % 6, 20 + 2 * (i % 5), i % 3, 2 + i % 4)
        }
        Size::Dme => (39, 175, 9, 22),
        Size::Heptane => (68, 283, 16, 27),
    };
    SynthConfig {
        name,
        n_species,
        n_reactions,
        n_qssa,
        n_stiff,
        seed,
    }
}

/// The four input files of a synthesized mechanism, as text.
pub fn mechanism_text(cfg: &SynthConfig) -> MechanismFiles {
    MechanismFiles::from_mechanism(&synthesize(cfg))
}

pub fn text_bytes(f: &MechanismFiles) -> usize {
    f.chemkin.len() + f.thermo.len() + f.transport.len() + f.qssa.len()
}

/// Parse the four input files: the program's front door.
pub fn parse(name: &str, f: &MechanismFiles) -> chemkin::Result<Mechanism> {
    let qssa = (!f.qssa.is_empty()).then_some(f.qssa.as_str());
    parse_mechanism(name, &f.chemkin, &f.thermo, &f.transport, qssa)
}

pub const KERNELS: [KernelId; 3] = KernelId::ALL;
pub const ARCHS: [ArchId; 3] = ArchId::ALL;
pub const VARIANTS: [Variant; 2] = [Variant::WarpSpecialized, Variant::Baseline];

/// Compile options and DFG warp count for a request, following the serve
/// layer's convention: warp-specialized builds use
/// [`singe_serve::default_options`]; baseline builds compile at 8 warps
/// against a DFG built for the warp-specialized warp count.
pub fn build_options(
    kernel: KernelId,
    variant: Variant,
    n_species: usize,
    arch: &GpuArch,
) -> (CompileOptions, usize) {
    let ws = default_options(kernel, n_species, arch);
    let warps = ws.warps;
    match variant {
        Variant::Baseline => (CompileOptions::with_warps(8), warps),
        _ => (ws, warps),
    }
}

/// Kernel tables plus dataflow graph: the `core.kernels` layer.
pub fn dfg(kernel: KernelId, m: &Mechanism, warps: usize) -> Dfg {
    match kernel {
        KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(m), warps),
        KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(m), warps),
        KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(m), warps),
    }
}

/// A one-dimensional grid of random thermodynamic states.
pub fn grid(points: usize, n_species: usize, seed: u64) -> GridState {
    GridState::random(
        GridDims {
            nx: points,
            ny: 1,
            nz: 1,
        },
        n_species,
        seed,
    )
}

/// Bounded Zipf(s) sampler over `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_replay_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..4).map(|i| mix(7, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| mix(7, i)).collect();
        let c: Vec<u64> = (0..4).map(|i| mix(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 100];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[99]);
    }
}
