//! Burst scheduling policies: how a run's dump bursts map onto simulated
//! wall-clock time.
//!
//! Synchronous backends (file-per-process, aggregated) block the
//! application for the whole drain: the clock jumps to the burst's end.
//! Overlapped backends (deferred/burst-buffer) hand staged data to a
//! drain that proceeds concurrently with the next compute phase; the
//! application only stalls when it reaches the next dump before the
//! previous drain finished (double buffering with one drain in flight).
//!
//! A scheduler drains into either a private [`StorageModel`] (the legacy
//! solo path) or one tenant's [`FabricHandle`] on a shared
//! [`crate::Fabric`]. The fabric path additionally runs a *shadow* solo
//! replay — the identical burst sequence against a private copy of the
//! model — so [`BurstScheduler::seal`] can report an exact
//! solo-equivalent wall (not an estimate) for the tenant's slowdown
//! factor.

use crate::fabric::FabricHandle;
use crate::storage::{ReadRequest, StorageModel, WriteRequest};
use crate::timeline::Burst;

/// Where bursts drain to.
enum Sink<'a> {
    Model(&'a StorageModel),
    Fabric(FabricHandle),
}

/// Exact solo replay of a fabric tenant's burst sequence: the same
/// requests against a private model copy, advanced by the same compute
/// deltas (app time between scheduler calls is pure compute, so the
/// shared clock's increments between calls transfer verbatim).
struct Shadow {
    model: StorageModel,
    clock: f64,
    drain_end: f64,
    /// Shared-run clock when the scheduler last returned control.
    last_shared_clock: f64,
}

impl Shadow {
    /// Replays the inter-call compute delta onto the solo clock.
    fn advance(&mut self, shared_clock: f64) {
        self.clock += (shared_clock - self.last_shared_clock).max(0.0);
    }

    /// Mirror of the legacy solo write path (both policies).
    fn write(&mut self, overlapped: bool, requests: &[WriteRequest]) {
        if requests.is_empty() {
            return;
        }
        let mut solo = requests.to_vec();
        if !overlapped {
            for r in solo.iter_mut() {
                r.start = self.clock;
            }
            self.clock = self.model.simulate_burst(&solo).t_end;
        } else {
            let handoff = self.clock.max(self.drain_end);
            for r in solo.iter_mut() {
                r.start = handoff;
            }
            self.drain_end = self.model.simulate_burst(&solo).t_end;
            self.clock = handoff;
        }
    }

    /// Mirror of the legacy solo read path (reads block and barrier the
    /// in-flight drain in both policies).
    fn read(&mut self, requests: &[ReadRequest]) {
        let start = self.clock.max(self.drain_end);
        if requests.is_empty() {
            self.clock = start;
            return;
        }
        let mut solo = requests.to_vec();
        for r in solo.iter_mut() {
            r.start = start;
        }
        self.clock = self.model.simulate_read_burst(&solo).t_end;
    }

    /// Mirror of the legacy closing barrier.
    fn wall(&self) -> f64 {
        self.clock.max(self.drain_end)
    }
}

/// Times a run's sequence of dump bursts under one policy.
pub struct BurstScheduler<'a> {
    sink: Sink<'a>,
    overlapped: bool,
    /// Completion time of the drain in flight (overlapped mode).
    drain_end: f64,
    /// Seconds the application waited on drains before write handoffs
    /// (includes staging-pool back-pressure on the fabric path).
    write_stall: f64,
    /// Seconds reads waited barriering an in-flight drain.
    read_stall: f64,
    /// Fabric only: the share of `write_stall` spent waiting for shared
    /// staging-pool space rather than this run's own previous drain.
    staging_wait: f64,
    shadow: Option<Shadow>,
}

impl<'a> BurstScheduler<'a> {
    /// A scheduler over a private `model`; `overlapped` selects the
    /// deferred (compute/flush overlap) policy.
    pub fn new(model: &'a StorageModel, overlapped: bool) -> Self {
        Self {
            sink: Sink::Model(model),
            overlapped,
            drain_end: 0.0,
            write_stall: 0.0,
            read_stall: 0.0,
            staging_wait: 0.0,
            shadow: None,
        }
    }

    /// A scheduler draining into one tenant's seat on a shared fabric.
    /// Bursts block until the shared engine resolves them against every
    /// overlapping tenant; a shadow solo replay tracks what the identical
    /// run would have cost alone (reported at [`BurstScheduler::seal`]).
    pub fn on_fabric(handle: FabricHandle, overlapped: bool) -> Self {
        let model = handle.model();
        Self {
            sink: Sink::Fabric(handle),
            overlapped,
            drain_end: 0.0,
            write_stall: 0.0,
            read_stall: 0.0,
            staging_wait: 0.0,
            shadow: Some(Shadow {
                model,
                clock: 0.0,
                drain_end: 0.0,
                last_shared_clock: 0.0,
            }),
        }
    }

    /// Submits the burst of `step` at application time `clock`; request
    /// start times are overwritten by the policy. Returns the timed burst
    /// and the application clock after the submit returns.
    pub fn submit(
        &mut self,
        step: u32,
        clock: f64,
        requests: &mut [WriteRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        if let Some(sh) = &mut self.shadow {
            sh.advance(clock);
            sh.write(self.overlapped, requests);
        }
        let (burst, clock_after) = if requests.is_empty() {
            let burst = Burst {
                step,
                t_start: clock,
                t_end: clock,
                bytes,
            };
            (burst, clock)
        } else if !self.overlapped {
            for r in requests.iter_mut() {
                r.start = clock;
            }
            let result = match &self.sink {
                Sink::Model(m) => m.simulate_burst(requests),
                Sink::Fabric(h) => h.simulate_burst(requests),
            };
            let burst = Burst {
                step,
                t_start: clock,
                t_end: result.t_end,
                bytes,
            };
            (burst, result.t_end)
        } else {
            // Wait for the in-flight drain (double-buffer swap), then hand
            // off; the new drain overlaps whatever the app does next. On
            // the fabric the handoff may slip further while the shared
            // staging pool is full.
            let base = clock.max(self.drain_end);
            let (handoff, result) = match &self.sink {
                Sink::Model(m) => {
                    for r in requests.iter_mut() {
                        r.start = base;
                    }
                    (base, m.simulate_burst(requests))
                }
                Sink::Fabric(h) => h.simulate_staged_burst(base, requests),
            };
            self.staging_wait += handoff - base;
            self.write_stall += handoff - clock;
            self.drain_end = result.t_end;
            let burst = Burst {
                step,
                t_start: handoff,
                t_end: result.t_end,
                bytes,
            };
            (burst, handoff)
        };
        if let Some(sh) = &mut self.shadow {
            sh.last_shared_clock = clock_after;
        }
        (burst, clock_after)
    }

    /// Like [`BurstScheduler::submit`], charging `compute_seconds` of
    /// application CPU work (in-situ compression of the dump's payloads)
    /// before the burst is handed to storage. Compression happens on the
    /// compute nodes in both policies — synchronous backends compress
    /// then block for the drain; overlapped backends compress then stage
    /// — so the charge always lands on the application clock, while the
    /// drain itself times the (smaller) physical request bytes.
    pub fn submit_with_compute(
        &mut self,
        step: u32,
        clock: f64,
        compute_seconds: f64,
        requests: &mut [WriteRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        self.submit(step, clock + compute_seconds, requests, bytes)
    }

    /// Submits a read burst (restart / analysis phase) at application
    /// time `clock`. Reads are synchronous in *both* policies — the
    /// application blocks until its restart bytes arrive — and
    /// read-after-write consistency barriers any drain still in flight
    /// before the read starts. Returns the timed burst and the clock
    /// after the data is in memory.
    pub fn submit_read(
        &mut self,
        step: u32,
        clock: f64,
        requests: &mut [ReadRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        if let Some(sh) = &mut self.shadow {
            sh.advance(clock);
            sh.read(requests);
        }
        let start = clock.max(self.drain_end);
        self.read_stall += start - clock;
        let (burst, clock_after) = if requests.is_empty() {
            let burst = Burst {
                step,
                t_start: start,
                t_end: start,
                bytes,
            };
            (burst, start)
        } else {
            for r in requests.iter_mut() {
                r.start = start;
            }
            let result = match &self.sink {
                Sink::Model(m) => m.simulate_read_burst(requests),
                Sink::Fabric(h) => h.simulate_read_burst(requests),
            };
            let burst = Burst {
                step,
                t_start: start,
                t_end: result.t_end,
                bytes,
            };
            (burst, result.t_end)
        };
        if let Some(sh) = &mut self.shadow {
            sh.last_shared_clock = clock_after;
        }
        (burst, clock_after)
    }

    /// Final wall-clock time: the application clock barriered against any
    /// drain still in flight (the run's closing flush). Pure — safe to
    /// use as a mid-run barrier query.
    pub fn finish(&self, clock: f64) -> f64 {
        clock.max(self.drain_end)
    }

    /// Ends the run at application time `clock`: returns the final wall
    /// (as [`BurstScheduler::finish`]) and, on the fabric path, reports
    /// the shared wall plus the shadow's exact solo-equivalent wall to
    /// the tenant's [`crate::TenantStats`] and retires the tenant from
    /// the fabric's quorum.
    pub fn seal(&mut self, clock: f64) -> f64 {
        let wall = self.finish(clock);
        let solo = match &mut self.shadow {
            Some(sh) => {
                sh.advance(clock);
                sh.last_shared_clock = clock;
                sh.wall()
            }
            // The private-model path has no shadow: a solo run's wall
            // *is* its solo wall.
            None => wall,
        };
        if let Sink::Fabric(h) = &mut self.sink {
            h.record_walls(wall, solo);
            h.finish();
        }
        wall
    }

    /// Seconds the application stalled waiting on in-flight drains
    /// (writes and reads combined).
    pub fn stall_time(&self) -> f64 {
        self.write_stall + self.read_stall
    }

    /// Stall seconds paid at write handoffs (double-buffer waits, plus
    /// staging back-pressure on the fabric path).
    pub fn write_stall(&self) -> f64 {
        self.write_stall
    }

    /// Stall seconds paid by reads barriering an in-flight drain.
    pub fn read_stall(&self) -> f64 {
        self.read_stall
    }

    /// Seconds lost to shared staging-pool back-pressure (always zero on
    /// the private-model path, which has a dedicated stage).
    pub fn staging_wait(&self) -> f64 {
        self.staging_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(n: usize, bytes: u64) -> Vec<WriteRequest> {
        (0..n)
            .map(|i| WriteRequest {
                rank: i,
                path: format!("/f{i}"),
                bytes,
                start: 0.0,
            })
            .collect()
    }

    #[test]
    fn sync_policy_blocks_for_the_drain() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, false);
        let mut r = reqs(1, 1000);
        let (burst, clock) = s.submit(1, 5.0, &mut r, 1000);
        assert_eq!(burst.t_start, 5.0);
        assert!((burst.t_end - 15.0).abs() < 1e-9);
        assert_eq!(clock, burst.t_end);
        assert_eq!(s.finish(clock), clock);
    }

    #[test]
    fn overlapped_policy_returns_immediately() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        let mut r = reqs(1, 1000);
        let (burst, clock) = s.submit(1, 5.0, &mut r, 1000);
        // Handoff is instant; the drain runs 5.0 -> 15.0 in background.
        assert_eq!(clock, 5.0);
        assert!((burst.t_end - 15.0).abs() < 1e-9);
        // Final barrier waits for the drain.
        assert!((s.finish(clock) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn overlapped_policy_stalls_only_when_compute_is_short() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        // Burst 1 at t=0 drains until t=10.
        let (_, clock) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        assert_eq!(clock, 0.0);
        // Next dump at t=4 (compute shorter than drain): stall until 10.
        let (burst2, clock2) = s.submit(2, 4.0, &mut reqs(1, 1000), 1000);
        assert!((clock2 - 10.0).abs() < 1e-9);
        assert!((burst2.t_start - 10.0).abs() < 1e-9);
        assert!((s.stall_time() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_beats_sync_wall_clock_for_same_volume() {
        let model = StorageModel::ideal(2, 1e6);
        let compute = 2.0;
        let volume = 1_000_000u64; // 1 s of drain per dump at 1 MB/s/server
        let run = |overlapped: bool| {
            let mut s = BurstScheduler::new(&model, overlapped);
            let mut clock = 0.0;
            for step in 1..=5u32 {
                clock += compute;
                let mut r = reqs(4, volume / 4);
                let (_, c) = s.submit(step, clock, &mut r, volume);
                clock = c;
            }
            s.finish(clock)
        };
        let sync_wall = run(false);
        let overlap_wall = run(true);
        assert!(
            overlap_wall < sync_wall - 1.0,
            "overlap {overlap_wall} vs sync {sync_wall}"
        );
    }

    #[test]
    fn codec_compute_charge_delays_the_burst() {
        let model = StorageModel::ideal(1, 100.0);
        // Synchronous: the charge shifts the whole burst.
        let mut s = BurstScheduler::new(&model, false);
        let (burst, clock) = s.submit_with_compute(1, 5.0, 2.0, &mut reqs(1, 100), 100);
        assert_eq!(burst.t_start, 7.0);
        assert!((clock - 8.0).abs() < 1e-9);
        // Overlapped: the app pays the charge, the drain still overlaps.
        let mut s = BurstScheduler::new(&model, true);
        let (burst, clock) = s.submit_with_compute(1, 5.0, 2.0, &mut reqs(1, 100), 100);
        assert_eq!(clock, 7.0, "charge lands on the application clock");
        assert!((burst.t_end - 8.0).abs() < 1e-9);
    }

    fn read_reqs(n: usize, bytes: u64) -> Vec<ReadRequest> {
        (0..n)
            .map(|i| ReadRequest {
                rank: i,
                path: format!("/f{i}"),
                bytes,
                start: 0.0,
            })
            .collect()
    }

    #[test]
    fn restart_reads_block_in_both_policies() {
        let model = StorageModel::ideal(1, 100.0);
        for overlapped in [false, true] {
            let mut s = BurstScheduler::new(&model, overlapped);
            let (burst, clock) = s.submit_read(1, 5.0, &mut read_reqs(1, 1000), 1000);
            assert_eq!(burst.t_start, 5.0);
            assert!((burst.t_end - 15.0).abs() < 1e-9);
            assert_eq!(clock, burst.t_end, "reads never overlap (ov={overlapped})");
        }
    }

    #[test]
    fn restart_read_barriers_inflight_drain() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        // A write drain runs 0 -> 10 in the background.
        let (_, clock) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        assert_eq!(clock, 0.0);
        // The restart read at t=2 must wait for the drain, then read.
        let (burst, clock2) = s.submit_read(1, 2.0, &mut read_reqs(1, 500), 500);
        assert!((burst.t_start - 10.0).abs() < 1e-9, "read-after-write");
        assert!((clock2 - 15.0).abs() < 1e-9);
        assert!((s.stall_time() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_burst_is_free() {
        let model = StorageModel::ideal(1, 1.0);
        let mut s = BurstScheduler::new(&model, true);
        let (burst, clock) = s.submit(1, 3.0, &mut [], 0);
        assert_eq!(clock, 3.0);
        assert_eq!(burst.duration(), 0.0);
    }

    // ---- stall accounting regressions (audit: stalls are max-based so
    // they can never go negative, and read barriers attribute their wait
    // to the read plane, not the write that caused it) ----

    #[test]
    fn stall_time_never_negative_even_when_clock_outruns_drains() {
        let model = StorageModel::ideal(1, 1e6);
        let mut s = BurstScheduler::new(&model, true);
        // Long compute gaps: every handoff happens after the drain ended,
        // so each stall contribution is exactly 0, never negative.
        let mut clock = 0.0;
        for step in 1..=4u32 {
            clock += 50.0;
            let (_, c) = s.submit(step, clock, &mut reqs(2, 1000), 2000);
            clock = c;
        }
        let (_, c) = s.submit_read(5, clock + 50.0, &mut read_reqs(1, 1000), 1000);
        assert_eq!(s.stall_time(), 0.0);
        assert_eq!(s.write_stall(), 0.0);
        assert_eq!(s.read_stall(), 0.0);
        assert!(s.finish(c) >= c);
    }

    #[test]
    fn read_barrier_stall_lands_on_the_read_plane() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        // Drain 0 -> 10 in flight; a write at 4 stalls 6s (write plane),
        // then its drain runs 10 -> 20; a read at 12 stalls 8s (read
        // plane). The two planes must not bleed into each other.
        let (_, c1) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        assert_eq!(c1, 0.0);
        let (_, c2) = s.submit(2, 4.0, &mut reqs(1, 1000), 1000);
        assert!((c2 - 10.0).abs() < 1e-9);
        let (burst, _) = s.submit_read(3, 12.0, &mut read_reqs(1, 100), 100);
        assert!((burst.t_start - 20.0).abs() < 1e-9);
        assert!((s.write_stall() - 6.0).abs() < 1e-9);
        assert!((s.read_stall() - 8.0).abs() < 1e-9);
        assert!((s.stall_time() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn empty_read_still_pays_the_barrier() {
        // An empty read burst (nothing to fetch) still represents a
        // consistency point: it barriers the in-flight drain and the
        // wait is recorded as read stall.
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        let (_, _) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        let (burst, clock) = s.submit_read(2, 3.0, &mut [], 0);
        assert!((burst.t_start - 10.0).abs() < 1e-9);
        assert!((clock - 10.0).abs() < 1e-9);
        assert!((s.read_stall() - 7.0).abs() < 1e-9);
    }

    // ---- fabric-backed scheduling ----

    #[test]
    fn fabric_scheduler_matches_model_scheduler_solo() {
        let model = StorageModel {
            variability_sigma: 0.15,
            ..StorageModel::ideal(3, 1e5)
        };
        for overlapped in [false, true] {
            let mut legacy = BurstScheduler::new(&model, overlapped);
            let fabric = crate::Fabric::new(model);
            let mut shared = BurstScheduler::on_fabric(fabric.tenant("solo"), overlapped);
            let mut lc = 0.0;
            let mut sc = 0.0;
            for step in 1..=3u32 {
                lc += 2.5;
                sc += 2.5;
                let (bl, cl) = legacy.submit(step, lc, &mut reqs(5, 30_000), 150_000);
                let (bs, cs) = shared.submit(step, sc, &mut reqs(5, 30_000), 150_000);
                assert_eq!(bl, bs, "step {step} (ov={overlapped})");
                assert_eq!(cl, cs);
                lc = cl;
                sc = cs;
            }
            let (bl, cl) = legacy.submit_read(4, lc + 1.0, &mut read_reqs(3, 30_000), 90_000);
            let (bs, cs) = shared.submit_read(4, sc + 1.0, &mut read_reqs(3, 30_000), 90_000);
            assert_eq!(bl, bs);
            assert_eq!(cl, cs);
            assert_eq!(legacy.stall_time(), shared.stall_time());
            let wall = shared.seal(cs);
            assert_eq!(wall, legacy.finish(cl), "sealed wall == legacy wall");
            let stats = fabric.tenant_stats();
            assert_eq!(
                stats[0].shared_wall, stats[0].solo_wall,
                "solo slowdown is 1"
            );
            assert_eq!(stats[0].slowdown(), 1.0);
        }
    }

    #[test]
    fn fabric_shadow_reports_exact_solo_wall_under_contention() {
        // Two tenants on one server; each tenant's TenantStats.solo_wall
        // must equal a true legacy solo run of the same burst sequence.
        let model = StorageModel::ideal(1, 100.0);
        let solo_wall = {
            let mut s = BurstScheduler::new(&model, false);
            let (_, c) = s.submit(1, 1.0, &mut reqs(1, 900), 900);
            s.finish(c)
        };
        let fabric = crate::Fabric::new(model);
        let ha = fabric.tenant("a");
        let hb = fabric.tenant("b");
        std::thread::scope(|sc| {
            for h in [ha, hb] {
                sc.spawn(move || {
                    let mut s = BurstScheduler::on_fabric(h, false);
                    let (_, c) = s.submit(1, 1.0, &mut reqs(1, 900), 900);
                    s.seal(c);
                });
            }
        });
        for st in fabric.tenant_stats() {
            assert_eq!(st.solo_wall, solo_wall, "shadow replay is exact");
            // 900 B at a shared 100 B/s server: drain takes 18s not 9s.
            assert!((st.shared_wall - 19.0).abs() < 1e-9);
            assert!(
                st.slowdown() > 1.8 && st.slowdown() < 1.95,
                "{}",
                st.slowdown()
            );
        }
    }

    #[test]
    fn fabric_staging_backpressure_counts_as_staging_wait() {
        let model = StorageModel::ideal(1, 100.0);
        let fabric = crate::Fabric::new(model).with_staging(1000);
        let ha = fabric.tenant("a");
        let hb = fabric.tenant("b");
        let waits: Vec<(f64, f64)> = std::thread::scope(|sc| {
            [ha, hb]
                .into_iter()
                .map(|h| {
                    sc.spawn(move || {
                        let mut s = BurstScheduler::on_fabric(h, true);
                        let (_, c) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
                        s.seal(c);
                        (s.staging_wait(), s.write_stall())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        // One of the two handoffs waited 10s for pool space; the wait is
        // visible both as write stall and specifically as staging wait.
        let total_staging: f64 = waits.iter().map(|w| w.0).sum();
        assert!((total_staging - 10.0).abs() < 1e-9, "{waits:?}");
        for (staging, write) in waits {
            assert!(write >= staging);
        }
    }
}
