//! Multi-stream stage execution simulation.
//!
//! A stage of an IOS schedule consists of one or more *groups*; each group
//! is a sequence of kernels issued on its own CUDA stream, and kernels from
//! different streams execute concurrently whenever the device has spare
//! resources. This module simulates that execution with a processor-sharing
//! model:
//!
//! * Each resident kernel demands a fraction of the device proportional to
//!   its thread-block count; when the total demand exceeds the device, every
//!   kernel is scaled back proportionally. Co-resident kernels additionally
//!   pay a contention penalty that grows with the number of concurrently
//!   executing kernels (`DeviceSpec::contention_alpha`).
//! * Memory bandwidth is shared the same way; if the combined activation
//!   working set of resident kernels exceeds the L2 capacity, effective
//!   bandwidth drops by `DeviceSpec::l2_miss_factor` — the "conflict over
//!   shared resources such as the last-level cache" the paper describes for
//!   large batch sizes (Section 7.2).
//! * Kernel launches are serialized on the host: the g-th group's first
//!   kernel cannot start before `g` launches have been issued, and each
//!   subsequent kernel in a stream pays one launch gap.
//! * A stage with more than one group ends with a stream synchronization
//!   that costs `ExecutionOverheads::stage_sync_us`.

use crate::device::{DeviceSpec, ExecutionOverheads};
use crate::kernel::KernelSpec;
use serde::{Deserialize, Serialize};

/// One kernel execution on the simulated timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelEvent {
    /// Kernel name (operator name).
    pub name: String,
    /// Index of the group (stream) the kernel ran on.
    pub group: usize,
    /// Start time in µs relative to the stage start.
    pub start_us: f64,
    /// End time in µs relative to the stage start.
    pub end_us: f64,
    /// Warps the kernel kept resident while running.
    pub warps: usize,
    /// Floating point work of the kernel.
    pub flops: u64,
}

impl KernelEvent {
    /// Duration of the kernel in µs.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Result of simulating one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSimulation {
    /// End-to-end latency of the stage in µs (including launch gaps and the
    /// final synchronization).
    pub latency_us: f64,
    /// Per-kernel timeline.
    pub events: Vec<KernelEvent>,
    /// Total floating point work of the stage.
    pub total_flops: u64,
}

impl StageSimulation {
    /// Achieved throughput of the stage in TFLOP/s.
    #[must_use]
    pub fn achieved_tflops(&self) -> f64 {
        crate::cost::achieved_tflops(self.total_flops, self.latency_us)
    }

    /// Utilization of the stage relative to the device's peak.
    #[must_use]
    pub fn utilization(&self, device: &DeviceSpec) -> f64 {
        crate::cost::utilization(self.total_flops, self.latency_us, device)
    }
}

/// Per-stream simulation state.
struct StreamState<'a, I> {
    /// The kernel currently executing or about to execute; `None` once every
    /// kernel of the stream has finished.
    current: Option<&'a KernelSpec>,
    /// The kernels after `current`, in issue order.
    rest: I,
    /// Fraction of the current kernel already completed.
    progress: f64,
    /// Time at which the current kernel's launch completes and it may start.
    ready_at: f64,
    /// Time at which the current kernel actually started executing.
    started_at: f64,
    /// Whether the current kernel is resident in this step of the loop.
    active: bool,
    /// The resident kernel's share of the device's SMs, if it ran alone.
    demand: f64,
    /// Time the resident kernel still needs at this step's rates.
    remaining: f64,
}

/// Simulates the concurrent execution of `groups` on `device`.
///
/// Each inner slice is one group: its kernels run sequentially on a
/// dedicated stream. Groups run concurrently. Returns the stage latency and
/// the kernel timeline.
///
/// An empty `groups` slice yields a zero-latency stage.
#[must_use]
pub fn simulate_stage(
    groups: &[Vec<KernelSpec>],
    device: &DeviceSpec,
    overheads: ExecutionOverheads,
) -> StageSimulation {
    let mut events = Vec::new();
    let latency_us = run_streams(
        groups.iter().map(|g| g.iter()),
        device,
        overheads,
        |kernel, group, start_us, end_us| {
            events.push(KernelEvent {
                name: kernel.name.clone(),
                group,
                start_us,
                end_us,
                warps: kernel.warps().min(device.max_resident_warps()),
                flops: kernel.flops,
            });
        },
    );
    StageSimulation {
        latency_us,
        // Every kernel of the stage finishes exactly once.
        total_flops: events.iter().map(|e| e.flops).sum(),
        events,
    }
}

/// The latency of [`simulate_stage`] alone — the same loop, bit for bit,
/// without recording the timeline. Streams are given as iterators over
/// kernels lowered elsewhere, so a caller that measures many stages of one
/// graph lowers each operator once and clones nothing per stage.
#[must_use]
pub(crate) fn stage_latency_us<'a, I>(
    groups: impl IntoIterator<Item = I>,
    device: &DeviceSpec,
    overheads: ExecutionOverheads,
) -> f64
where
    I: ExactSizeIterator<Item = &'a KernelSpec>,
{
    run_streams(groups, device, overheads, |_, _, _, _| {})
}

/// The processor-sharing loop behind [`simulate_stage`] and
/// [`stage_latency_us`]. `on_finish(kernel, stream, start_us, end_us)` is
/// called once per kernel, in completion order.
fn run_streams<'a, I>(
    groups: impl IntoIterator<Item = I>,
    device: &DeviceSpec,
    overheads: ExecutionOverheads,
    mut on_finish: impl FnMut(&'a KernelSpec, usize, f64, f64),
) -> f64
where
    I: ExactSizeIterator<Item = &'a KernelSpec>,
{
    let mut kernels = 0;
    let mut streams: Vec<StreamState<'a, I>> = Vec::new();
    for mut group in groups {
        kernels += group.len();
        let Some(first) = group.next() else {
            continue;
        };
        streams.push(StreamState {
            current: Some(first),
            rest: group,
            progress: 0.0,
            // The host issues the first kernel of each stream one after the
            // other, so stream i waits for i+1 launch gaps.
            ready_at: overheads.kernel_launch_us * (streams.len() + 1) as f64,
            started_at: f64::NAN,
            active: false,
            demand: 0.0,
            remaining: 0.0,
        });
    }
    if streams.is_empty() {
        return 0.0;
    }

    let mut now = 0.0_f64;
    const EPS: f64 = 1e-9;
    let max_iterations = 16 * (1 + kernels);
    let mut iterations = 0;

    while streams.iter().any(|s| s.current.is_some()) {
        iterations += 1;
        assert!(
            iterations <= max_iterations,
            "stage simulation failed to converge"
        );

        // Which kernels are resident right now?
        let mut resident = 0usize;
        for s in &mut streams {
            s.active = s.current.is_some() && s.ready_at <= now + EPS;
            resident += usize::from(s.active);
        }

        if resident == 0 {
            // Jump to the next launch completion.
            now = streams
                .iter()
                .filter(|s| s.current.is_some())
                .map(|s| s.ready_at)
                .fold(f64::INFINITY, f64::min);
            continue;
        }

        // Record start times for kernels that just became active, and
        // compute resource shares.
        let mut combined_ws = 0u64;
        for s in streams.iter_mut().filter(|s| s.active) {
            if s.started_at.is_nan() {
                s.started_at = now;
            }
            let k = s.current.expect("active stream has a kernel");
            s.demand = k.thread_blocks as f64 / device.sm_count as f64;
            combined_ws += k.working_set_bytes;
        }
        let total_demand: f64 = streams.iter().filter(|s| s.active).map(|s| s.demand).sum();
        // Multi-tenancy contention: kernels from different streams compete
        // for schedulers, cache and DRAM; the penalty grows with the number
        // of co-resident kernels (not with the size of any single kernel).
        let contention = 1.0 / (1.0 + device.contention_alpha * (resident as f64 - 1.0).max(0.0));
        let l2_factor = if resident > 1 && combined_ws as usize > device.l2_cache_bytes {
            device.l2_miss_factor
        } else {
            1.0
        };

        // Remaining time of each active kernel at the current rates.
        for s in streams.iter_mut().filter(|s| s.active) {
            let k = s.current.expect("active");
            let share = if total_demand > 1.0 {
                s.demand / total_demand
            } else {
                s.demand
            }
            .min(1.0);
            let compute_rate =
                device.peak_flops_per_us() * share * k.compute_efficiency * contention;
            let mem_share = if resident > 1 {
                (s.demand / total_demand.max(1.0))
                    .max(1.0 / resident as f64)
                    .min(1.0)
            } else {
                1.0
            };
            let memory_rate = device.bytes_per_us() * k.memory_efficiency * mem_share * l2_factor;
            let frac_left = 1.0 - s.progress;
            let t = crate::cost::roofline_time_us(
                k.flops as f64 * frac_left,
                k.mem_bytes as f64 * frac_left,
                compute_rate,
                memory_rate,
            );
            s.remaining = t.max(EPS);
        }

        // Next event: either a kernel finishes or a pending stream becomes ready.
        let next_finish = streams
            .iter()
            .filter(|s| s.active)
            .map(|s| s.remaining)
            .fold(f64::INFINITY, f64::min);
        let next_ready = streams
            .iter()
            .filter(|s| s.current.is_some() && s.ready_at > now + EPS)
            .map(|s| s.ready_at - now)
            .fold(f64::INFINITY, f64::min);
        let dt = next_finish.min(next_ready);
        debug_assert!(dt.is_finite() && dt > 0.0);

        // Advance all active kernels by dt.
        for (i, s) in streams.iter_mut().enumerate().filter(|(_, s)| s.active) {
            let advanced = dt / s.remaining;
            s.progress += (1.0 - s.progress) * advanced.min(1.0);
            if s.progress >= 1.0 - 1e-6 {
                // Kernel complete.
                on_finish(s.current.expect("active"), i, s.started_at, now + dt);
                s.current = s.rest.next();
                s.progress = 0.0;
                s.started_at = f64::NAN;
                s.ready_at = now + dt + overheads.kernel_launch_us;
            }
        }
        now += dt;
    }

    let sync = if streams.len() > 1 {
        overheads.stage_sync_us
    } else {
        0.0
    };
    now + sync
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::kernel::{conv2d_kernel, KernelLibrary};
    use ios_ir::{Conv2dParams, TensorShape};

    fn v100() -> DeviceSpec {
        DeviceKind::TeslaV100.spec()
    }

    fn fig2_conv(name: &str, out_channels: usize) -> KernelSpec {
        conv2d_kernel(
            name,
            TensorShape::new(1, 384, 15, 15),
            Conv2dParams::relu(out_channels, (3, 3), (1, 1), (1, 1)),
            KernelLibrary::CuDnn,
        )
    }

    #[test]
    fn empty_stage_has_zero_latency() {
        let sim = simulate_stage(&[], &v100(), ExecutionOverheads::none());
        assert_eq!(sim.latency_us, 0.0);
        assert!(sim.events.is_empty());
        let sim = simulate_stage(&[vec![]], &v100(), ExecutionOverheads::ios_engine());
        assert_eq!(sim.latency_us, 0.0);
    }

    #[test]
    fn single_kernel_matches_isolated_cost_plus_launch() {
        let k = fig2_conv("a", 384);
        let isolated = crate::cost::isolated_kernel_latency_us(&k, &v100());
        let sim = simulate_stage(&[vec![k]], &v100(), ExecutionOverheads::new(3.0, 6.0));
        assert_eq!(sim.events.len(), 1);
        assert!(
            (sim.latency_us - (isolated + 3.0)).abs() < 1e-3,
            "{} vs {}",
            sim.latency_us,
            isolated + 3.0
        );
        // Single group → no stream sync.
        assert!(sim.latency_us < isolated + 5.0);
    }

    #[test]
    fn sequential_kernels_add_up() {
        let a = fig2_conv("a", 384);
        let b = fig2_conv("b", 384);
        let oh = ExecutionOverheads::none();
        let single = simulate_stage(&[vec![a.clone()]], &v100(), oh).latency_us;
        let double = simulate_stage(&[vec![a, b]], &v100(), oh).latency_us;
        assert!((double - 2.0 * single).abs() < 1e-3);
    }

    #[test]
    fn concurrent_execution_beats_sequential_for_small_kernels() {
        // Two under-occupying convolutions: running them in two streams must
        // be notably faster than running them back to back (Figure 2's core
        // observation), but not faster than the larger of the two alone.
        let a = fig2_conv("a", 384);
        let b = fig2_conv("b", 768);
        let oh = ExecutionOverheads::ios_engine();
        let dev = v100();
        let seq = simulate_stage(&[vec![a.clone(), b.clone()]], &dev, oh).latency_us;
        let conc = simulate_stage(&[vec![a.clone()], vec![b.clone()]], &dev, oh).latency_us;
        let a_alone = simulate_stage(&[vec![a]], &dev, oh).latency_us;
        let b_alone = simulate_stage(&[vec![b]], &dev, oh).latency_us;
        assert!(conc < 0.8 * seq, "concurrent {conc} vs sequential {seq}");
        assert!(
            conc >= b_alone.max(a_alone) * 0.99,
            "cannot be faster than the longest member"
        );
    }

    #[test]
    fn concurrency_helps_less_when_device_is_saturated() {
        // At batch 32 each conv already fills the device; concurrency gains shrink.
        let big = |name: &str| {
            conv2d_kernel(
                name,
                TensorShape::new(32, 384, 15, 15),
                Conv2dParams::relu(384, (3, 3), (1, 1), (1, 1)),
                KernelLibrary::CuDnn,
            )
        };
        let dev = v100();
        let oh = ExecutionOverheads::none();
        let seq = simulate_stage(&[vec![big("a"), big("b")]], &dev, oh).latency_us;
        let conc = simulate_stage(&[vec![big("a")], vec![big("b")]], &dev, oh).latency_us;
        let small_gain = seq / conc;
        // Compare against the batch-one gain.
        let a1 = fig2_conv("a", 384);
        let b1 = fig2_conv("b", 384);
        let seq1 = simulate_stage(&[vec![a1.clone(), b1.clone()]], &dev, oh).latency_us;
        let conc1 = simulate_stage(&[vec![a1], vec![b1]], &dev, oh).latency_us;
        let big_gain = seq1 / conc1;
        assert!(
            big_gain > small_gain + 0.15,
            "batch-1 gain {big_gain} vs batch-32 gain {small_gain}"
        );
    }

    #[test]
    fn oversubscription_contention_slows_everyone() {
        // Eight concurrent big kernels oversubscribe the device; the total
        // time must exceed work/peak by a visible contention margin.
        let dev = v100();
        let oh = ExecutionOverheads::none();
        let kernels: Vec<Vec<KernelSpec>> = (0..8)
            .map(|i| {
                vec![conv2d_kernel(
                    format!("k{i}"),
                    TensorShape::new(4, 384, 15, 15),
                    Conv2dParams::relu(768, (3, 3), (1, 1), (1, 1)),
                    KernelLibrary::CuDnn,
                )]
            })
            .collect();
        let sim = simulate_stage(&kernels, &dev, oh);
        let total_flops: u64 = sim.total_flops;
        let ideal_us = total_flops as f64 / (dev.peak_flops_per_us() * 0.82);
        assert!(
            sim.latency_us > 1.1 * ideal_us,
            "{} vs ideal {}",
            sim.latency_us,
            ideal_us
        );
    }

    #[test]
    fn sync_overhead_only_for_multi_group_stages() {
        let a = fig2_conv("a", 384);
        let b = fig2_conv("b", 384);
        let oh = ExecutionOverheads::new(0.0, 50.0);
        let dev = v100();
        let one_group = simulate_stage(&[vec![a.clone(), b.clone()]], &dev, oh).latency_us;
        let two_groups = simulate_stage(&[vec![a.clone()], vec![b.clone()]], &dev, oh).latency_us;
        // The two-group stage pays the 50 µs sync; with zero launch cost and
        // these small kernels the sync is clearly visible.
        let one_group_no_sync =
            simulate_stage(&[vec![a, b]], &dev, ExecutionOverheads::none()).latency_us;
        assert!((one_group - one_group_no_sync).abs() < 1e-6);
        assert!(two_groups > 50.0);
    }

    #[test]
    fn events_are_consistent() {
        let a = fig2_conv("a", 384);
        let b = fig2_conv("b", 768);
        let c = fig2_conv("c", 384);
        let sim = simulate_stage(
            &[vec![a, b], vec![c]],
            &v100(),
            ExecutionOverheads::ios_engine(),
        );
        assert_eq!(sim.events.len(), 3);
        for e in &sim.events {
            assert!(e.end_us > e.start_us);
            assert!(e.end_us <= sim.latency_us + 1e-6);
            assert!(e.warps > 0);
        }
        // Kernels of the same group must not overlap.
        let group0: Vec<&KernelEvent> = sim.events.iter().filter(|e| e.group == 0).collect();
        assert_eq!(group0.len(), 2);
        let (first, second) = if group0[0].start_us < group0[1].start_us {
            (group0[0], group0[1])
        } else {
            (group0[1], group0[0])
        };
        assert!(second.start_us >= first.end_us - 1e-6);
        assert!(sim.utilization(&v100()) > 0.0);
        assert!(sim.achieved_tflops() > 0.0);
    }

    #[test]
    fn contention_on_k80_is_worse_than_on_v100() {
        // The same four-way concurrent stage helps on V100 but barely helps
        // (or hurts) on K80, the basis of the device-specialization result.
        let make = |name: &str| fig2_conv(name, 384);
        let oh = ExecutionOverheads::ios_engine();
        let gain = |dev: &DeviceSpec| {
            let seq = simulate_stage(&[vec![make("a"), make("b"), make("c"), make("d")]], dev, oh)
                .latency_us;
            let conc = simulate_stage(
                &[
                    vec![make("a")],
                    vec![make("b")],
                    vec![make("c")],
                    vec![make("d")],
                ],
                dev,
                oh,
            )
            .latency_us;
            seq / conc
        };
        let v100_gain = gain(&DeviceKind::TeslaV100.spec());
        let k80_gain = gain(&DeviceKind::TeslaK80.spec());
        assert!(
            v100_gain > k80_gain + 0.3,
            "V100 gain {v100_gain}, K80 gain {k80_gain}"
        );
    }
}
