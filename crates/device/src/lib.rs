//! # bookleaf-device
//!
//! Hardware performance models standing in for the paper's testbeds.
//!
//! The paper evaluates BookLeaf on Cray XC50 nodes (Intel Xeon Platinum
//! 8176 "Skylake", Xeon E5-2699 v4 "Broadwell") and NVIDIA P100/V100
//! GPUs. We cannot measure those machines; instead this crate provides
//! analytic cost models that map *counted work* (elements × steps ×
//! per-kernel cost) onto *modeled platforms*, reproducing the mechanisms
//! behind every effect the paper reports:
//!
//! * **Roofline kernel costs** — each kernel has a flop and byte count
//!   per element (audited against `bookleaf-hydro`'s code); platform
//!   time is `max(flops/peak, bytes/bandwidth)`.
//! * **Amdahl intra-rank serialisation** — the hybrid MPI+OpenMP model
//!   runs each kernel's serial fraction once per rank instead of once
//!   per core; the acceleration kernel's scatter dependency (§IV-B) and
//!   the expanded `MINVAL`/`MINLOC` scans make those fractions large for
//!   `getacc`, `getdt` and `getgeom` — exactly the kernels Table II
//!   shows blowing up under the hybrid model.
//! * **GPU launch and transfer overheads** — per-kernel-launch fixed
//!   cost; the CUDA Fortran *dope-vector* transfer per array argument
//!   per launch (§IV-D, with the paper's fixed-size-array optimisation
//!   as a toggle); the CUDA time-differential kernel running on the host
//!   with its per-step device↔host array traffic; the register-pressure
//!   occupancy gap between CUDA and OpenMP offload viscosity kernels.
//! * **Cluster strong scaling** — per-node compute with an L3-residency
//!   boost (the paper's super-linear 8→16-node regime), Aries-class
//!   message latency/bandwidth, and the serial partitioner term the
//!   paper calls out in §V-C.
//!
//! Calibration constants are documented inline and recorded in
//! EXPERIMENTS.md; the *shapes* (who wins, by what factor, where the
//! crossovers sit) emerge from the mechanisms, not from curve fitting to
//! every cell.

pub mod cluster;
pub mod cost;
pub mod cpu;
pub mod gpu;
pub mod platform;

pub use cluster::ClusterModel;
pub use cost::{KernelCost, WorkloadCount};
pub use cpu::{CpuExecution, CpuModel};
pub use gpu::{GpuExecution, GpuModel};
pub use platform::{CpuPlatform, GpuPlatform, Interconnect};
