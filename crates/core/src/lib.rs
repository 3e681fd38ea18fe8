//! # usfq-core — the U-SFQ architecture
//!
//! The paper's contribution, layered on the [`usfq_sim`] kernel, the
//! [`usfq_cells`] library, and the [`usfq_encoding`] representations:
//!
//! * [`blocks`] — unary building blocks (paper §4): the RL-gated
//!   [`blocks::UnipolarMultiplier`] and [`blocks::BipolarMultiplier`],
//!   the lossy [`blocks::MergerAdder`] and loss-free
//!   [`blocks::BalancerAdder`] / [`blocks::CountingNetwork`], the
//!   [`blocks::PulseNumberMultiplier`] stream generator, the coefficient
//!   [`blocks::MemoryBank`], and the race-logic shift registers built on
//!   the [`blocks::IntegratorBuffer`].
//! * [`accel`] — the three evaluated accelerators (paper §5): the
//!   [`accel::ProcessingElement`] (and arrays of them), the
//!   [`accel::DotProductUnit`], and the [`accel::UsfqFir`] filter with
//!   the paper's fault-injection model.
//! * [`model`] — closed-form area / latency / throughput / power models
//!   calibrated to the paper's anchors, used by the figure harness.
//! * [`netlists`] — every shipped structural netlist packaged with its
//!   operating envelope, the input catalogue of the `usfq-lint` static
//!   analyzer.
//! * [`rig`] — a block's circuit built once with its simulator, rerun
//!   per operand set.
//!
//! Structural implementations simulate real pulse circuits; each
//! accelerator also has a *functional* model (bit-exact unary semantics
//! without event simulation) for the paper's large parameter sweeps, and
//! the test suite pins the two against each other.
//!
//! ```
//! use usfq_core::blocks::UnipolarMultiplier;
//! use usfq_encoding::Epoch;
//!
//! # fn main() -> Result<(), usfq_core::CoreError> {
//! let epoch = Epoch::from_bits(6)?;
//! let product = UnipolarMultiplier::new(epoch).multiply(0.5, 0.25)?;
//! assert!((product.value() - 0.125).abs() < epoch.lsb());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod blocks;
mod error;
pub mod model;
pub mod netlists;
pub mod repair;
pub mod rig;

pub use error::CoreError;
pub use rig::Rig;
