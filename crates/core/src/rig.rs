//! Build-once simulation rigs.
//!
//! The paper's accelerators are wave-pipelined datapaths: one physical
//! circuit takes a new operand set every epoch. A [`Rig`] is the
//! simulated counterpart: a block's circuit built once together with its
//! simulator and the ids a run drives and reads. A run records its
//! operands into a [`Stimulus`]. When they equal the operands of the
//! rig's last finished run, the run is that run and simulates nothing;
//! otherwise the rig resets the simulator to power-on state and applies
//! them. Either way a rig gives a fresh simulator's answer on every
//! call, while the circuit build, the compiled wiring and the
//! simulator's allocations are paid once.
//!
//! Each block defines its circuit in one builder (`circuit`). A block
//! whose rig is rerun defines its stimulus in one runner (`*_on`) that
//! takes a rig; its one-shot methods build a rig and run it once, and
//! the accelerators build theirs on first use and rerun them per sample.
//! The structural FIR's PNM rigs see the same clock train every sample,
//! so after the first sample each of their runs is a replay.

use usfq_sim::{
    Burst, Circuit, CoalesceStats, Fingerprint, InputId, ProbeId, RunSummary, ShardedSimulator,
    SimConfig, SimError, Time,
};

/// A block's circuit built once, with its simulator and its io: the
/// input and probe ids a run drives and reads.
pub struct Rig<P> {
    sim: ShardedSimulator,
    io: P,
    held: Held,
    /// The operands the simulator was last driven with.
    applied: Stimulus,
    /// The operands a run records, before they are compared with
    /// `applied`; the two swap when they differ.
    next: Stimulus,
    last: RunSummary,
    /// Burst-coalescing counters summed over every finished run.
    coalesce: CoalesceStats,
    replays: u64,
}

/// What a rig's simulator holds between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// Power-on state: the rig has not run.
    PowerOn,
    /// Whatever a run that failed left behind.
    Failed,
    /// The finished run of the rig's `applied` operands.
    Finished,
}

/// A run's operands in the order its runner placed them: for each, the
/// input and a pulse time or a coalesced train. [`Rig::run`] applies
/// them to the simulator in this order, so two runs that record equal
/// lists schedule the same pulses under the same sequence numbers.
#[derive(Debug, PartialEq, Eq)]
pub struct Stimulus {
    operands: Vec<(InputId, Operand)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Pulse(Time),
    Burst(Burst),
}

impl Stimulus {
    /// Records a pulse on an external input at absolute time `t`, as
    /// [`ShardedSimulator::schedule_input`] schedules it.
    ///
    /// # Errors
    ///
    /// None while recording: an unknown input fails the run when the rig
    /// applies it. The signature is the simulator's, so a runner's
    /// closure reads as it would against the simulator.
    pub fn schedule_input(&mut self, input: InputId, t: Time) -> Result<(), SimError> {
        self.operands.push((input, Operand::Pulse(t)));
        Ok(())
    }

    /// Records a whole coalesced train on an external input, as
    /// [`ShardedSimulator::schedule_burst`] schedules it.
    ///
    /// # Errors
    ///
    /// None while recording, as [`Stimulus::schedule_input`].
    pub fn schedule_burst(&mut self, input: InputId, burst: Burst) -> Result<(), SimError> {
        self.operands.push((input, Operand::Burst(burst)));
        Ok(())
    }

    fn apply(&self, sim: &mut ShardedSimulator) -> Result<(), SimError> {
        for &(input, operand) in &self.operands {
            match operand {
                Operand::Pulse(t) => sim.schedule_input(input, t)?,
                Operand::Burst(burst) => sim.schedule_burst(input, burst)?,
            }
        }
        Ok(())
    }
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
            held: Held::PowerOn,
            applied: Stimulus {
                operands: Vec::new(),
            },
            next: Stimulus {
                operands: Vec::new(),
            },
            last: RunSummary {
                events: 0,
                end_time: Time::ZERO,
            },
            coalesce: CoalesceStats::default(),
            replays: 0,
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

    /// One run: `schedule` records the operands, and the rig answers
    /// with the run a fresh simulator would give them.
    ///
    /// When the operands equal, in order, those of the rig's last run
    /// and that run finished, the run is a *replay*: the rig returns
    /// that run's summary, and the simulator keeps its probes, activity
    /// and sanitizer report, which a rerun would rebuild identically.
    /// Otherwise the rig resets the simulator (except on its first run,
    /// which is a fresh simulator's), applies the operands in recorded
    /// order and runs until the queue drains.
    ///
    /// A replay is exact on the assumptions a reset already makes: the
    /// rig has one circuit and one [`SimConfig`]; the same operands in
    /// the same order take the same sequence numbers, so equal-time
    /// ties break the same way; every jitter draw is a pure function of
    /// seed, wire and nominal time; and cells keep no state outside the
    /// simulator's cell states, which a reset returns to power-on. And
    /// nothing but `run` drives the simulator: [`Rig::sim`] lends it
    /// read-only. The same operands in another order are not a replay,
    /// since order sets tie order. Only the last run is kept, so memory
    /// stays flat.
    ///
    /// A `schedule` that returns an error leaves the simulator as it
    /// was. A run whose operands fail to apply or whose simulation
    /// fails is never replayed, and the next run resets.
    ///
    /// # Errors
    ///
    /// Whatever `schedule`, applying the operands or the simulation
    /// returns.
    pub fn run(
        &mut self,
        schedule: impl FnOnce(&mut Stimulus, &P) -> Result<(), SimError>,
    ) -> Result<RunSummary, SimError> {
        self.next.operands.clear();
        schedule(&mut self.next, &self.io)?;
        if self.held == Held::Finished && self.next == self.applied {
            self.replays += 1;
        } else {
            if self.held != Held::PowerOn {
                self.sim.reset();
            }
            self.held = Held::Failed;
            std::mem::swap(&mut self.next, &mut self.applied);
            self.applied.apply(&mut self.sim)?;
            self.last = self.sim.run()?;
            self.held = Held::Finished;
        }
        self.coalesce.merge(&self.sim.activity().coalesce);
        Ok(self.last)
    }

    /// The burst-coalescing counters of every finished run since the
    /// rig was built, summed, a replay counting as the run it repeats;
    /// [`Rig::sim`] holds the last run's alone.
    pub fn coalesce(&self) -> CoalesceStats {
        self.coalesce
    }

    /// How many runs since the rig was built were replays.
    pub fn replays(&self) -> u64 {
        self.replays
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

    type BufferRig = Rig<(InputId, ProbeId)>;

    /// One buffer from input to probe.
    fn buffer_rig(config: &SimConfig) -> BufferRig {
        let mut c = Circuit::new();
        let input = c.input("in");
        let buf = c.add(Buffer::new("buf", Time::from_ps(2.0)));
        c.connect_input(input, buf.input(0), Time::ZERO).unwrap();
        let probe = c.probe(buf.output(0), "out");
        Rig::with_config((c, (input, probe)), config)
    }

    /// Runs one pulse per time in `ps`, in order, and reads the probe.
    fn pulses_at(rig: &mut BufferRig, ps: &[f64]) -> Vec<Time> {
        rig.run(|stimulus, &(input, _)| {
            for &t in ps {
                stimulus.schedule_input(input, Time::from_ps(t))?;
            }
            Ok(())
        })
        .unwrap();
        rig.sim().probe_times(rig.io().1).to_vec()
    }

    fn fingerprint(rig: &BufferRig) -> Fingerprint {
        rig.fingerprint(&[rig.io().1])
    }

    /// A fresh reference rig's fingerprint after pulses at `ps`.
    fn fresh(ps: &[f64]) -> Fingerprint {
        let mut rig = buffer_rig(&SimConfig::reference());
        pulses_at(&mut rig, ps);
        fingerprint(&rig)
    }

    /// A rerun with the last run's operands is a replay: it answers as
    /// a fresh rig, and its counters add up as a rerun's would.
    #[test]
    fn the_last_runs_operands_replay_it() {
        let mut rig = buffer_rig(&SimConfig::reference());
        let first = pulses_at(&mut rig, &[1.0, 4.0]);
        assert_eq!(pulses_at(&mut rig, &[1.0, 4.0]), first);
        assert_eq!(rig.replays(), 1);
        assert_eq!(fingerprint(&rig), fresh(&[1.0, 4.0]));

        let burst = SimConfig {
            burst: true,
            ..SimConfig::reference()
        };
        let mut rig = buffer_rig(&burst);
        let train = Burst::uniform(Time::ZERO, Time::from_ps(10.0), 8);
        let mut run = || rig.run(|stimulus, io| stimulus.schedule_burst(io.0, train));
        let summary = run().unwrap();
        assert_eq!(run().unwrap(), summary);
        let once = rig.sim().activity().coalesce;
        assert!(once.hits > 0, "the buffer absorbs the train in closed form");
        assert_eq!(rig.replays(), 1);
        let mut twice = once;
        twice.merge(&once);
        assert_eq!(rig.coalesce(), twice);
    }

    /// Order sets tie order, so the same pulses in another order are
    /// not a replay.
    #[test]
    fn the_same_operands_in_another_order_are_not_a_replay() {
        let mut rig = buffer_rig(&SimConfig::reference());
        pulses_at(&mut rig, &[1.0, 4.0]);
        pulses_at(&mut rig, &[4.0, 1.0]);
        assert_eq!(rig.replays(), 0);
        assert_eq!(fingerprint(&rig), fresh(&[4.0, 1.0]));
    }

    /// A schedule that returns an error touches nothing, so the last
    /// run still replays. A run whose operands fail to apply is never
    /// replayed: rerun, it fails again, and the next good run resets
    /// the half-applied pulse away and matches a fresh rig.
    #[test]
    fn a_failed_run_leaves_nothing_behind() {
        let mut rig = buffer_rig(&SimConfig::reference());
        pulses_at(&mut rig, &[1.0]);
        let failed = rig.run(|stimulus, &(input, _)| {
            stimulus.schedule_input(input, Time::from_ps(5.0))?;
            Err(SimError::UnknownId("operand".into()))
        });
        assert!(failed.is_err());
        assert_eq!(pulses_at(&mut rig, &[1.0]), [Time::from_ps(3.0)]);
        assert_eq!(rig.replays(), 1);

        // An input id past the rig circuit's only input.
        let foreign = {
            let mut c = Circuit::new();
            c.input("a");
            c.input("b")
        };
        for _ in 0..2 {
            let failed = rig.run(|stimulus, &(input, _)| {
                stimulus.schedule_input(input, Time::from_ps(5.0))?;
                stimulus.schedule_input(foreign, Time::from_ps(6.0))
            });
            assert!(matches!(failed, Err(SimError::UnknownId(_))));
        }
        assert_eq!(pulses_at(&mut rig, &[1.0]), [Time::from_ps(3.0)]);
        assert_eq!(rig.replays(), 1);
        assert_eq!(fingerprint(&rig), fresh(&[1.0]));
    }
}
