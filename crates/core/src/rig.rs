//! Build-once simulation rigs.
//!
//! The paper's accelerators are wave-pipelined datapaths: one physical
//! circuit takes a new operand set every epoch. A [`Rig`] is the
//! simulated counterpart: a block's circuit built once together with its
//! simulator and the ids a run drives and reads. Every run resets the
//! simulator to power-on state before it schedules its operands, so a
//! rig gives a fresh simulator's answer on every call while the circuit
//! build, the compiled wiring and the simulator's allocations are paid
//! once.
//!
//! Each block defines its circuit in one builder (`circuit`). A block
//! whose rig is rerun defines its stimulus in one runner (`*_on`) that
//! takes a rig; its one-shot methods build a rig and run it once, and
//! the accelerators build theirs on first use and rerun them per sample.

use usfq_sim::{
    Circuit, Fingerprint, ProbeId, RunSummary, ShardedSimulator, SimConfig, SimError, Time,
};

/// A block's circuit built once, with its simulator and its io: the
/// input and probe ids a run drives and reads.
pub struct Rig<P> {
    sim: ShardedSimulator,
    io: P,
    /// Whether the simulator has been driven since it was built.
    used: bool,
    last: RunSummary,
}

impl<P> Rig<P> {
    /// A rig of a block's circuit and io, as its `circuit` builder
    /// returns them, on the environment's engine configuration
    /// ([`SimConfig::from_env`]) at one shard: the configuration
    /// [`Simulator::new`](usfq_sim::Simulator::new) uses.
    pub fn new(block: (Circuit, P)) -> Self {
        let config = SimConfig {
            shards: 1,
            ..SimConfig::from_env().clone()
        };
        Rig::with_config(block, &config)
    }

    /// [`Rig::new`] on an explicit engine configuration, shard count
    /// included.
    pub fn with_config((circuit, io): (Circuit, P), config: &SimConfig) -> Self {
        Rig {
            sim: ShardedSimulator::with_config(circuit, config),
            io,
            used: false,
            last: RunSummary {
                events: 0,
                end_time: Time::ZERO,
            },
        }
    }

    /// The ids a run drives and reads.
    pub fn io(&self) -> &P {
        &self.io
    }

    /// The simulator, holding the last run's probes and activity.
    pub fn sim(&self) -> &ShardedSimulator {
        &self.sim
    }

    /// One run: resets the simulator, lets `schedule` place the
    /// operands, and runs until the queue drains. The reset comes
    /// first, so a run that returned an error leaves nothing behind; a
    /// new rig's first run skips it, so that run is a fresh simulator's.
    ///
    /// # Errors
    ///
    /// Whatever `schedule` or the simulation returns.
    pub fn run(
        &mut self,
        schedule: impl FnOnce(&mut ShardedSimulator, &P) -> Result<(), SimError>,
    ) -> Result<RunSummary, SimError> {
        if self.used {
            self.sim.reset();
        }
        self.used = true;
        schedule(&mut self.sim, &self.io)?;
        self.last = self.sim.run()?;
        Ok(self.last)
    }

    /// The last run's fingerprint, recording `probes` in the order
    /// given.
    pub fn fingerprint(&self, probes: &[ProbeId]) -> Fingerprint {
        Fingerprint::capture(&self.sim, self.last, probes)
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Rig<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rig")
            .field("io", &self.io)
            .field("shards", &self.sim.num_shards())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usfq_sim::component::Buffer;
    use usfq_sim::InputId;

    /// One buffer from input to probe.
    fn buffer_rig() -> Rig<(InputId, ProbeId)> {
        let mut c = Circuit::new();
        let input = c.input("in");
        let buf = c.add(Buffer::new("buf", Time::from_ps(2.0)));
        c.connect_input(input, buf.input(0), Time::ZERO).unwrap();
        let probe = c.probe(buf.output(0), "out");
        Rig::with_config((c, (input, probe)), &SimConfig::reference())
    }

    fn pulse_at(rig: &mut Rig<(InputId, ProbeId)>, ps: f64) -> Vec<Time> {
        rig.run(|sim, &(input, _)| sim.schedule_input(input, Time::from_ps(ps)))
            .unwrap();
        rig.sim().probe_times(rig.io().1).to_vec()
    }

    /// A run whose scheduling failed halfway leaves its pulse queued;
    /// the next run resets it away and matches a fresh rig.
    #[test]
    fn a_failed_run_leaves_nothing_behind() {
        let mut rig = buffer_rig();
        let failed = rig.run(|sim, &(input, _)| {
            sim.schedule_input(input, Time::from_ps(5.0))?;
            Err(SimError::UnknownId("operand".into()))
        });
        assert!(failed.is_err());
        assert_eq!(pulse_at(&mut rig, 1.0), [Time::from_ps(3.0)]);
        let mut fresh = buffer_rig();
        pulse_at(&mut fresh, 1.0);
        let probes = [rig.io().1];
        assert_eq!(rig.fingerprint(&probes), fresh.fingerprint(&probes));
    }
}
