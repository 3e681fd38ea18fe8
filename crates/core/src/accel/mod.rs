//! The three U-SFQ hardware accelerators the paper evaluates (§5):
//! a processing element for spatial architectures, a dot-product unit,
//! and a programmable FIR filter.

mod dpu;
mod fir;
mod fir_structural;
mod pe;

pub use dpu::{DotProductUnit, DpuIo};
pub use fir::{fir_reference, FaultModel, UsfqFir};
pub use fir_structural::StructuralFir;
pub use pe::{PeArray, PeIo, ProcessingElement, StreamToRlIntegrator};
