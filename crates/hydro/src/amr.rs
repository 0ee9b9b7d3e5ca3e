//! The AMR simulation driver.
//!
//! Plays the role of `Amr`/`AmrLevel` in AMReX-Castro: owns the level
//! hierarchy, advances it with subcycled CFL time steps (level `l`
//! takes `ref_ratio^l` substeps per coarse step, as Castro does),
//! averages fine data onto coarse levels, and regrids every
//! `amr.regrid_int` steps by re-tagging and re-running Berger–Rigoutsos.
//! The per-step grid hierarchy this driver produces is the paper's I/O
//! signal: plotfile bytes are a direct function of it.

use crate::eos::GammaLaw;
use crate::sedov::SedovProblem;
use crate::solver::{advance_level, apply_outflow_bc, NGROW};
use crate::state::NCOMP;
use crate::tagging::{tag_gradients, TagCriteria};
use crate::timestep::{cfl_dt, limit_dt, TimestepControl};
use amr_mesh::prelude::*;
use amr_mesh::Coord;
use serde::{Deserialize, Serialize};

/// Full configuration of an AMR Sedov run (the Castro input-file surface
/// the paper varies, Table I, plus grid-generation knobs from Listing 2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AmrConfig {
    /// Level-0 cells per direction (`amr.n_cell`).
    pub n_cell: i64,
    /// Finest level allowed (`amr.max_level`); total levels = max_level+1.
    pub max_level: usize,
    /// Grid generation parameters (`amr.ref_ratio`, `amr.blocking_factor`,
    /// `amr.max_grid_size`, `amr.n_error_buf`, `amr.grid_eff`).
    pub grid: GridParams,
    /// Steps between regrids (`amr.regrid_int`).
    pub regrid_int: u64,
    /// Simulated MPI ranks.
    pub nranks: usize,
    /// Box-to-rank assignment strategy.
    pub strategy: DistributionStrategy,
    /// Time-step control (`castro.cfl`, `castro.init_shrink`,
    /// `castro.change_max`).
    pub ctrl: TimestepControl,
    /// Refinement criteria.
    pub tag: TagCriteria,
    /// Problem definition.
    pub problem: SedovProblem,
}

impl Default for AmrConfig {
    /// Listing 2 of the paper scaled to a small default mesh.
    fn default() -> Self {
        Self {
            n_cell: 64,
            max_level: 2,
            grid: GridParams {
                ref_ratio: 2,
                blocking_factor: 8,
                max_grid_size: 32,
                n_error_buf: 2,
                grid_eff: 0.7,
            },
            regrid_int: 2,
            nranks: 4,
            strategy: DistributionStrategy::Sfc,
            ctrl: TimestepControl::default(),
            tag: TagCriteria::default(),
            problem: SedovProblem::default(),
        }
    }
}

/// One refinement level.
pub struct Level {
    /// Level geometry.
    pub geom: Geometry,
    /// Conserved state.
    pub mf: MultiFab,
    /// Substeps taken at this level. Level `l` subcycles `ref_ratio^l`
    /// times per coarse step ([`AmrSim::step`]), so only level 0 counts
    /// coarse steps.
    pub steps: u64,
}

/// Per-step summary returned by [`AmrSim::step`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepInfo {
    /// Step index after the advance (1-based).
    pub step: u64,
    /// Simulation time after the advance.
    pub time: f64,
    /// dt used.
    pub dt: f64,
    /// Finest active level.
    pub finest_level: usize,
    /// Valid cells per level.
    pub cells: Vec<i64>,
    /// Grids per level.
    pub grids: Vec<usize>,
}

/// The AMR hierarchy driver.
pub struct AmrSim {
    cfg: AmrConfig,
    eos: GammaLaw,
    levels: Vec<Level>,
    time: f64,
    step: u64,
    dt_prev: Option<f64>,
}

impl AmrSim {
    /// Builds the hierarchy at `t = 0`: level 0 covering the unit square,
    /// then up to `max_level` finer levels from iterative initial tagging,
    /// each initialized analytically (the AMReX init-regrid cycle).
    pub fn new(cfg: AmrConfig) -> Self {
        cfg.grid.validate();
        assert!(cfg.n_cell >= cfg.grid.blocking_factor, "n_cell too small");
        let eos = cfg.problem.eos();
        let geom0 = Geometry::unit_square(IntVect::splat(cfg.n_cell));
        let ba0 = BoxArray::single(geom0.domain).max_size(cfg.grid.max_grid_size);
        let dm0 = DistributionMapping::new(&ba0, cfg.nranks, cfg.strategy);
        let mut mf0 = MultiFab::new(ba0, dm0, NCOMP, NGROW);
        cfg.problem.init_level(&mut mf0, &geom0);
        let mut sim = Self {
            eos,
            levels: vec![Level {
                geom: geom0,
                mf: mf0,
                steps: 0,
            }],
            time: 0.0,
            step: 0,
            dt_prev: None,
            cfg,
        };
        // Iterative initial grid generation.
        for _ in 0..sim.cfg.max_level {
            let lev = sim.levels.len() - 1;
            if lev >= sim.cfg.max_level {
                break;
            }
            sim.fill_ghosts(lev);
            let tags = tag_gradients(&sim.levels[lev].mf, &sim.eos, &sim.cfg.tag);
            let fine_ba = make_fine_grids(&tags, sim.levels[lev].geom.domain, &sim.cfg.grid);
            if fine_ba.is_empty() {
                break;
            }
            let fine_geom = sim.levels[lev]
                .geom
                .refine(IntVect::splat(sim.cfg.grid.ref_ratio));
            let dm = DistributionMapping::new(&fine_ba, sim.cfg.nranks, sim.cfg.strategy);
            let mut mf = MultiFab::new(fine_ba, dm, NCOMP, NGROW);
            sim.cfg.problem.init_level(&mut mf, &fine_geom);
            sim.levels.push(Level {
                geom: fine_geom,
                mf,
                steps: 0,
            });
        }
        sim.average_down_all();
        sim
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Finest active level index.
    pub fn finest_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Access to the levels (coarsest first).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The run configuration.
    pub fn config(&self) -> &AmrConfig {
        &self.cfg
    }

    /// The equation of state in use.
    pub fn eos(&self) -> &GammaLaw {
        &self.eos
    }

    /// Fills ghost cells of level `lev`: coarse-fine interpolation (from
    /// `lev-1`), same-level exchange, then physical outflow boundaries.
    fn fill_ghosts(&mut self, lev: usize) {
        if lev > 0 {
            let (coarse_slice, fine_slice) = self.levels.split_at_mut(lev);
            let coarse = &coarse_slice[lev - 1].mf;
            let fine = &mut fine_slice[0].mf;
            interp_ghosts_from_coarse(
                fine,
                coarse,
                self.cfg.grid.ref_ratio,
                &fine_slice[0].geom.domain,
            );
        }
        let domain = self.levels[lev].geom.domain;
        self.levels[lev].mf.fill_boundary();
        apply_outflow_bc(&mut self.levels[lev].mf, &domain);
    }

    /// Conservatively averages every fine level onto its parent.
    fn average_down_all(&mut self) {
        for lev in (1..self.levels.len()).rev() {
            let (coarse_slice, fine_slice) = self.levels.split_at_mut(lev);
            average_down(
                &fine_slice[0].mf,
                &mut coarse_slice[lev - 1].mf,
                self.cfg.grid.ref_ratio,
            );
        }
    }

    /// Advances the whole hierarchy by one *coarse* (level-0) step with
    /// subcycling: level `l` takes `ref_ratio^l` substeps of `dt0 /
    /// ref_ratio^l`, exactly Castro's default time stepping. `amr.max_step`
    /// therefore counts coarse steps, which is what makes the paper's
    /// 200-output windows traverse a meaningful fraction of the domain.
    /// Regrids first when the coarse step count calls for it.
    pub fn step(&mut self) -> StepInfo {
        if self.step > 0 && self.cfg.regrid_int > 0 && self.step.is_multiple_of(self.cfg.regrid_int)
        {
            self.regrid();
        }
        // Coarse dt: the minimum over levels of each level's stable dt
        // scaled to its coarse equivalent (level l subcycles r^l times).
        let r = self.cfg.grid.ref_ratio as f64;
        let mut dt0 = f64::INFINITY;
        for (lev, l) in self.levels.iter().enumerate() {
            let dt_l = cfl_dt(&l.mf, &l.geom, &self.eos, self.cfg.ctrl.cfl);
            dt0 = dt0.min(dt_l * r.powi(lev as i32));
        }
        let dt0 = limit_dt(&self.cfg.ctrl, dt0, self.dt_prev);
        self.dt_prev = Some(dt0);

        self.advance_recursive(0, dt0);
        self.time += dt0;
        self.step += 1;

        StepInfo {
            step: self.step,
            time: self.time,
            dt: dt0,
            finest_level: self.finest_level(),
            cells: self
                .levels
                .iter()
                .map(|l| l.mf.box_array().num_pts())
                .collect(),
            grids: self.levels.iter().map(|l| l.mf.box_array().len()).collect(),
        }
    }

    /// Advances level `lev` by `dt`, then subcycles the finer level and
    /// averages it down (Castro's recursive `timeStep`).
    fn advance_recursive(&mut self, lev: usize, dt: f64) {
        let geom = self.levels[lev].geom;
        // advance_level refills ghosts per sweep via the closure; take the
        // MultiFab out temporarily to satisfy the borrow checker.
        let mut mf = std::mem::replace(
            &mut self.levels[lev].mf,
            MultiFab::new(
                BoxArray::single(IndexBox::at_origin(IntVect::splat(1))),
                DistributionMapping::from_owners(vec![0], 1),
                NCOMP,
                0,
            ),
        );
        {
            let levels = &mut self.levels;
            let ratio = self.cfg.grid.ref_ratio;
            advance_level(&mut mf, &geom, dt, &self.eos, |m: &mut MultiFab| {
                if lev > 0 {
                    interp_ghosts_from_coarse(m, &levels[lev - 1].mf, ratio, &geom.domain);
                }
                m.fill_boundary();
                apply_outflow_bc(m, &geom.domain);
            });
        }
        self.levels[lev].mf = mf;
        self.levels[lev].steps += 1;

        if lev + 1 < self.levels.len() {
            let r = self.cfg.grid.ref_ratio as usize;
            for _ in 0..r {
                self.advance_recursive(lev + 1, dt / r as f64);
            }
            let (coarse_slice, fine_slice) = self.levels.split_at_mut(lev + 1);
            average_down(
                &fine_slice[0].mf,
                &mut coarse_slice[lev].mf,
                self.cfg.grid.ref_ratio,
            );
        }
    }

    /// Re-tags all levels and rebuilds levels 1..=max_level, enforcing
    /// nesting and preserving data (copy where overlapping, interpolate
    /// from the parent elsewhere).
    pub fn regrid(&mut self) {
        let max_lev = self.cfg.max_level;
        let ratio = IntVect::splat(self.cfg.grid.ref_ratio);

        // Tag every level that may spawn a finer one.
        let top = self.finest_level().min(max_lev.saturating_sub(1));
        let mut tags: Vec<TagMap> = Vec::with_capacity(top + 1);
        for lev in 0..=top {
            self.fill_ghosts(lev);
            tags.push(tag_gradients(
                &self.levels[lev].mf,
                &self.eos,
                &self.cfg.tag,
            ));
        }
        // Nesting: a level must refine wherever its child will refine.
        for lev in (0..top).rev() {
            let finer = tags[lev + 1].clone().coarsen(ratio);
            let mut buffered = finer.clone();
            buffered.buffer(1);
            for p in buffered.domain().cells() {
                if buffered.get(p) {
                    tags[lev].set(p, true);
                }
            }
        }

        // Build new levels coarse-to-fine.
        let mut new_levels: Vec<Level> = Vec::with_capacity(max_lev + 1);
        // Level 0 is immutable.
        new_levels.push(Level {
            geom: self.levels[0].geom,
            mf: self.levels[0].mf.clone(),
            steps: self.levels[0].steps,
        });
        for lev in 0..=top {
            let fine_ba = make_fine_grids(&tags[lev], self.levels[lev].geom.domain, &self.cfg.grid);
            if fine_ba.is_empty() {
                break;
            }
            // Enforce nesting inside the (new) parent's grids for lev >= 1.
            let fine_ba = if lev == 0 {
                fine_ba
            } else {
                let parent_fine: Vec<IndexBox> = new_levels[lev]
                    .mf
                    .box_array()
                    .iter()
                    .map(|b| b.refine(ratio))
                    .collect();
                let mut clipped = Vec::new();
                for b in fine_ba.iter() {
                    for pb in &parent_fine {
                        if let Some(i) = b.intersection(pb) {
                            clipped.push(i);
                        }
                    }
                }
                BoxArray::new(clipped)
            };
            if fine_ba.is_empty() {
                break;
            }
            let fine_geom = new_levels[lev].geom.refine(ratio);
            let dm = DistributionMapping::new(&fine_ba, self.cfg.nranks, self.cfg.strategy);
            let mut mf = MultiFab::new(fine_ba, dm, NCOMP, NGROW);
            // Fill: prolongate from the new parent, then overwrite with
            // old same-level data where it exists.
            prolongate(&mut mf, &new_levels[lev].mf, self.cfg.grid.ref_ratio);
            if lev + 1 < self.levels.len() {
                mf.parallel_copy_from(&self.levels[lev + 1].mf);
            }
            let steps = self
                .levels
                .get(lev + 1)
                .map(|l| l.steps)
                .unwrap_or(new_levels[lev].steps);
            new_levels.push(Level {
                geom: fine_geom,
                mf,
                steps,
            });
        }
        self.levels = new_levels;
        self.average_down_all();
    }
}

/// Piecewise-constant interpolation of coarse data into the ghost region
/// of every fine fab (cells inside `fine_domain` only).
pub fn interp_ghosts_from_coarse(
    fine: &mut MultiFab,
    coarse: &MultiFab,
    ref_ratio: Coord,
    fine_domain: &IndexBox,
) {
    let ratio = IntVect::splat(ref_ratio);
    let ncomp = fine.ncomp().min(coarse.ncomp());
    let ngrow = fine.ngrow();
    for fi in 0..fine.nfabs() {
        let valid = fine.valid_box(fi);
        let grown = match valid.grow(ngrow).intersection(fine_domain) {
            Some(g) => g,
            None => continue,
        };
        // Ghost strips = grown region minus the valid box.
        let strips = BoxArray::single(valid).complement_in(&grown);
        let fab = fine.fab_mut(fi);
        for strip in strips {
            let cstrip = strip.coarsen(ratio);
            for (ci, isect) in coarse.box_array().intersections(&cstrip) {
                let cfab = coarse.fab(ci);
                for cp in isect.cells() {
                    let fine_cells = match IndexBox::new(cp, cp).refine(ratio).intersection(&strip)
                    {
                        Some(r) => r,
                        None => continue,
                    };
                    for comp in 0..ncomp {
                        let v = cfab.get(cp, comp);
                        for fp in fine_cells.cells() {
                            fab.set(fp, comp, v);
                        }
                    }
                }
            }
        }
    }
}

/// Piecewise-constant prolongation of the full valid region of `fine`
/// from `coarse` (used to seed new grids at regrid).
pub fn prolongate(fine: &mut MultiFab, coarse: &MultiFab, ref_ratio: Coord) {
    let ratio = IntVect::splat(ref_ratio);
    let ncomp = fine.ncomp().min(coarse.ncomp());
    for fi in 0..fine.nfabs() {
        let valid = fine.valid_box(fi);
        let cregion = valid.coarsen(ratio);
        let fab = fine.fab_mut(fi);
        for (ci, isect) in coarse.box_array().intersections(&cregion) {
            let cfab = coarse.fab(ci);
            for cp in isect.cells() {
                let fine_cells = match IndexBox::new(cp, cp).refine(ratio).intersection(&valid) {
                    Some(r) => r,
                    None => continue,
                };
                for comp in 0..ncomp {
                    let v = cfab.get(cp, comp);
                    for fp in fine_cells.cells() {
                        fab.set(fp, comp, v);
                    }
                }
            }
        }
    }
}

/// Conservative average of `fine` onto the overlapping region of
/// `coarse`: each covered coarse cell becomes the mean of its fine cells.
pub fn average_down(fine: &MultiFab, coarse: &mut MultiFab, ref_ratio: Coord) {
    let ratio = IntVect::splat(ref_ratio);
    let ncomp = coarse.ncomp().min(fine.ncomp());
    for ci in 0..coarse.nfabs() {
        let cvalid = coarse.valid_box(ci);
        let fine_region = cvalid.refine(ratio);
        for (fi, fisect) in fine.box_array().intersections(&fine_region) {
            let ffab = fine.fab(fi);
            let covered = fisect.coarsen(ratio);
            for cp in covered.cells() {
                let cells = match IndexBox::new(cp, cp).refine(ratio).intersection(&fisect) {
                    Some(r) => r,
                    None => continue,
                };
                let n = cells.num_pts() as f64;
                // Only replace fully covered coarse cells (alignment makes
                // partial coverage rare; skip it to stay conservative).
                if cells.num_pts() != ratio.prod() {
                    continue;
                }
                for comp in 0..ncomp {
                    let mut sum = 0.0;
                    for fp in cells.cells() {
                        sum += ffab.get(fp, comp);
                    }
                    coarse.fab_mut(ci).set(cp, comp, sum / n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{UEDEN, URHO};

    fn small_cfg() -> AmrConfig {
        AmrConfig {
            n_cell: 64,
            max_level: 2,
            grid: GridParams {
                ref_ratio: 2,
                blocking_factor: 8,
                max_grid_size: 32,
                n_error_buf: 2,
                grid_eff: 0.7,
            },
            regrid_int: 2,
            nranks: 4,
            strategy: DistributionStrategy::Sfc,
            ctrl: TimestepControl::default(),
            tag: TagCriteria::default(),
            problem: SedovProblem::default(),
        }
    }

    #[test]
    fn initial_hierarchy_refines_the_deposit() {
        let sim = AmrSim::new(small_cfg());
        assert!(sim.finest_level() >= 1, "blast region must be refined");
        // Finer levels are much smaller than the domain.
        let l0 = sim.levels()[0].mf.box_array().num_pts();
        let l1 = sim.levels()[1].mf.box_array().num_pts();
        assert!(l1 < 4 * l0, "refined level covers a fraction of the domain");
        assert!(l1 > 0);
    }

    #[test]
    fn nesting_holds_after_regrids() {
        let mut sim = AmrSim::new(small_cfg());
        for _ in 0..6 {
            sim.step();
        }
        for lev in 1..=sim.finest_level() {
            let ratio = IntVect::splat(sim.config().grid.ref_ratio);
            let parent: Vec<IndexBox> = sim.levels()[lev - 1]
                .mf
                .box_array()
                .iter()
                .map(|b| b.refine(ratio))
                .collect();
            for b in sim.levels()[lev].mf.box_array().iter() {
                let covered = parent
                    .iter()
                    .filter_map(|p| b.intersection(p))
                    .map(|i| i.num_pts())
                    .sum::<i64>();
                assert_eq!(covered, b.num_pts(), "level {lev} box {b} not nested");
            }
        }
    }

    #[test]
    fn dt_sequence_respects_init_shrink_and_growth() {
        let mut sim = AmrSim::new(small_cfg());
        let s1 = sim.step();
        let s2 = sim.step();
        let s3 = sim.step();
        assert!(s1.dt > 0.0);
        assert!(s2.dt <= s1.dt * 1.1 + 1e-15);
        assert!(s3.dt <= s2.dt * 1.1 + 1e-15);
        assert!(s2.time > s1.time);
    }

    #[test]
    fn blast_expands_refined_region() {
        // Accelerate the dt ramp-up (Castro's init_shrink=0.01 needs ~50
        // steps before the shock moves a cell) so the test stays fast.
        let mut cfg = small_cfg();
        cfg.ctrl = TimestepControl {
            cfl: 0.5,
            init_shrink: 0.3,
            change_max: 1.3,
        };
        let mut sim = AmrSim::new(cfg);
        let cells_t0: i64 = sim.levels()[1..]
            .iter()
            .map(|l| l.mf.box_array().num_pts())
            .sum();
        for _ in 0..40 {
            sim.step();
        }
        let cells_t1: i64 = sim.levels()[1..]
            .iter()
            .map(|l| l.mf.box_array().num_pts())
            .sum();
        assert!(
            cells_t1 > cells_t0,
            "refined cells must grow as the shock expands: {cells_t0} -> {cells_t1}"
        );
    }

    #[test]
    fn mass_is_approximately_conserved_through_steps_and_regrids() {
        let mut sim = AmrSim::new(small_cfg());
        let m0 = sim.levels()[0].mf.sum(URHO) * sim.levels()[0].geom.cell_area();
        for _ in 0..8 {
            sim.step();
        }
        let m1 = sim.levels()[0].mf.sum(URHO) * sim.levels()[0].geom.cell_area();
        // Subcycling without flux registers (no reflux) leaks a small
        // amount of mass at coarse-fine boundaries; outflow boundaries see
        // nothing before the wave arrives. Drift must stay tiny.
        assert!((m0 - m1).abs() < 5e-3 * m0, "mass {m0} -> {m1}");
    }

    #[test]
    fn max_level_zero_runs_unrefined() {
        let mut cfg = small_cfg();
        cfg.max_level = 0;
        let mut sim = AmrSim::new(cfg);
        assert_eq!(sim.finest_level(), 0);
        sim.step();
        sim.step();
        assert_eq!(sim.finest_level(), 0);
    }

    #[test]
    fn energy_positive_everywhere_after_steps() {
        let mut sim = AmrSim::new(small_cfg());
        for _ in 0..6 {
            sim.step();
        }
        for l in sim.levels() {
            assert!(l.mf.min(UEDEN) > 0.0);
            assert!(l.mf.min(URHO) > 0.0);
        }
    }

    #[test]
    fn average_down_is_mean_of_children() {
        let geomc = Geometry::unit_square(IntVect::splat(8));
        let bac = BoxArray::single(geomc.domain);
        let dmc = DistributionMapping::new(&bac, 1, DistributionStrategy::Sfc);
        let mut coarse = MultiFab::new(bac, dmc, NCOMP, 0);
        let baf = BoxArray::single(IndexBox::at_origin(IntVect::splat(4)));
        let dmf = DistributionMapping::new(&baf, 1, DistributionStrategy::Sfc);
        let mut fine = MultiFab::new(baf, dmf, NCOMP, 0);
        // Fine values: 1, 2, 3, 4 in each 2x2 block -> coarse = 2.5.
        for p in IndexBox::at_origin(IntVect::splat(4)).cells() {
            let v = 1.0 + (p.x % 2) as f64 + 2.0 * (p.y % 2) as f64;
            fine.fab_mut(0).set(p, URHO, v);
        }
        average_down(&fine, &mut coarse, 2);
        for p in IndexBox::at_origin(IntVect::splat(2)).cells() {
            assert_eq!(coarse.fab(0).get(p, URHO), 2.5);
        }
        // Uncovered coarse cells untouched.
        assert_eq!(coarse.fab(0).get(IntVect::new(5, 5), URHO), 0.0);
    }

    #[test]
    fn prolongate_copies_parent_values() {
        let bac = BoxArray::single(IndexBox::at_origin(IntVect::splat(4)));
        let dmc = DistributionMapping::new(&bac, 1, DistributionStrategy::Sfc);
        let mut coarse = MultiFab::new(bac, dmc, 1, 0);
        coarse.fab_mut(0).set(IntVect::new(1, 1), 0, 7.0);
        let baf = BoxArray::single(IndexBox::from_lo_size(
            IntVect::new(2, 2),
            IntVect::splat(2),
        ));
        let dmf = DistributionMapping::new(&baf, 1, DistributionStrategy::Sfc);
        let mut fine = MultiFab::new(baf, dmf, 1, 0);
        prolongate(&mut fine, &coarse, 2);
        let region = IndexBox::from_lo_size(IntVect::new(2, 2), IntVect::splat(2));
        for p in region.cells() {
            assert_eq!(fine.fab(0).get(p, 0), 7.0);
        }
    }
}
