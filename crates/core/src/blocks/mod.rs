//! The unary SFQ building blocks (paper §4).

mod adder;
mod converters;
mod counting;
mod memory;
mod multiplier;
mod pnm;
mod shift;

pub use adder::{BalancerAdder, MergerAdder, MergerSum};
pub use converters::{BinaryToRlConverter, StreamToBinaryCounter};
pub use counting::{CountingIo, CountingNetwork};
pub use memory::MemoryBank;
pub use multiplier::{
    gated_count, BipolarIo, BipolarMultiplier, BipolarMultiplierPorts, UnipolarIo,
    UnipolarMultiplier,
};
pub(crate) use pnm::merge_taps;
pub use pnm::{PnmIo, PnmVariant, PulseNumberMultiplier};
pub use shift::{IntegratorBuffer, MemoryCell, RlShiftRegister, ShiftRegisterKind};
