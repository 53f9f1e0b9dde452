//! The minor-cycle scheduler: a [`PipelineDescription`] made executable.
//!
//! The paper's engine processes the N ways of the simulated processor
//! serially, splitting each **major** (simulated) cycle into **minor**
//! (engine clock) cycles, and §IV develops three organizations of the
//! same stages onto minor-cycle grids (Figures 2–4). The scheduler owns
//! both halves of that story for one engine instance:
//!
//! * the **stage roster and evaluation order** — the boxed
//!   [`Stage`] units, evaluated once per major cycle in the fixed
//!   architectural order (see [`crate::stages`] for why the order is
//!   organization-independent);
//! * the **minor-cycle cost** of a major cycle — *derived from the
//!   description's schedule grid* (the highest occupied slot across
//!   stage rows, plus one), not from the closed-form `2N+3` / `N+4` /
//!   `N+3` formulas. The formulas remain in
//!   [`PipelineOrganization`](crate::PipelineOrganization) as the
//!   paper's analytical result, and a dedicated test pins grid-derived
//!   == closed-form for every built-in organization and width.

use crate::config::{ConfigError, EngineConfig};
use crate::description::PipelineDescription;
use crate::stages::{
    CommitStage, DispatchStage, FetchStage, IssueStage, LsqRefreshStage, Stage, TraceFeed,
    WritebackStage,
};
use crate::state::CoreState;
use resim_obs::{NullRecorder, Recorder, SpanId};

/// Wall-time span ids aligned with the stage roster's evaluation order.
const STAGE_SPANS: [SpanId; 6] = [
    SpanId::Commit,
    SpanId::Writeback,
    SpanId::LsqRefresh,
    SpanId::Issue,
    SpanId::Dispatch,
    SpanId::Fetch,
];

/// Executes one major cycle of the engine: evaluates the stage roster in
/// architectural order and charges the description's minor-cycle cost.
///
/// Built by [`Engine::new`](crate::Engine::new) from the configuration's
/// [`PipelineDescription`]; exposed so `describe` and tests can inspect
/// the roster and the activity-derived accounting. Generic over the
/// engine's [`Recorder`] so each stage evaluation can be wrapped in a
/// wall-time span (a no-op under the default [`NullRecorder`]).
#[derive(Debug)]
pub struct MinorCycleScheduler<R: Recorder = NullRecorder> {
    description: PipelineDescription,
    width: usize,
    /// Minor cycles one major cycle costs, derived from the schedule
    /// grid at construction.
    minor_cycles_per_major: u64,
    /// The stage units, in architectural evaluation order.
    stages: Vec<Box<dyn Stage<R>>>,
    /// Total operations performed per stage, aligned with `stages`.
    activity: Vec<u64>,
}

impl<R: Recorder> MinorCycleScheduler<R> {
    /// Builds the scheduler (stage roster + minor-cycle grid) for a
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Pipeline`] (or [`ConfigError::ZeroWidth`])
    /// when the description cannot build a schedule grid at
    /// `config.width` — no input panics.
    pub fn new(config: &EngineConfig) -> Result<Self, ConfigError> {
        if config.width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        let description = config.pipeline.clone();
        let width = config.width;
        let schedule = description
            .schedule(width)
            .map_err(ConfigError::Pipeline)?;
        // Activity-derived cost: the last minor-cycle slot any stage
        // occupies in the description's grid bounds the major cycle.
        let minor_cycles_per_major = schedule
            .rows()
            .iter()
            .flat_map(|row| {
                row.cells
                    .iter()
                    .rposition(|c| c.is_some())
                    .map(|last| last as u64 + 1)
            })
            .max()
            .unwrap_or(0);
        let stages: Vec<Box<dyn Stage<R>>> = vec![
            Box::new(CommitStage),
            Box::new(WritebackStage::default()),
            Box::new(LsqRefreshStage),
            Box::new(IssueStage::new(&config.fus)),
            Box::new(DispatchStage),
            Box::new(FetchStage),
        ];
        let activity = vec![0; stages.len()];
        Ok(Self {
            description,
            width,
            minor_cycles_per_major,
            stages,
            activity,
        })
    }

    /// The pipeline description this scheduler realises.
    pub fn description(&self) -> &PipelineDescription {
        &self.description
    }

    /// Simulated processor width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Minor cycles one major cycle costs, as derived from the schedule
    /// grid (cross-checked against the paper's closed-form formulas in
    /// tests).
    pub fn minor_cycles_per_major(&self) -> u64 {
        self.minor_cycles_per_major
    }

    /// Stage names in evaluation order — the roster `resim describe`
    /// reports.
    pub fn roster(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Per-stage totals of architectural operations performed so far,
    /// in evaluation order.
    pub fn activity(&self) -> Vec<(&'static str, u64)> {
        self.stages
            .iter()
            .map(|s| s.name())
            .zip(self.activity.iter().copied())
            .collect()
    }

    /// Evaluates every stage once (one major cycle) and returns the
    /// minor cycles charged for it.
    pub(crate) fn step(
        &mut self,
        core: &mut CoreState<R>,
        feed: &mut dyn TraceFeed,
    ) -> u64 {
        for (i, (stage, total)) in self
            .stages
            .iter_mut()
            .zip(self.activity.iter_mut())
            .enumerate()
        {
            if R::ENABLED {
                core.recorder.span_enter(STAGE_SPANS[i]);
            }
            *total += stage.evaluate(core, feed).ops;
            if R::ENABLED {
                core.recorder.span_exit(STAGE_SPANS[i]);
            }
        }
        self.minor_cycles_per_major
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineOrganization;

    fn config_for(org: PipelineOrganization, width: usize) -> EngineConfig {
        EngineConfig {
            width,
            ifq_size: width.max(16),
            rb_size: width.max(16),
            fus: crate::config::FuConfig {
                alus: width,
                ..Default::default()
            },
            mem_read_ports: 1.max(width.saturating_sub(1).min(2)),
            pipeline: org.description(),
            ..EngineConfig::paper_4wide()
        }
    }

    #[test]
    fn grid_derived_cost_matches_the_paper_formulas() {
        // The tentpole cross-check: the scheduler derives its engine-cycle
        // cost from the schedule grid; the paper's closed-form 2N+3 / N+4
        // / N+3 must agree for every organization and width.
        for org in PipelineOrganization::ALL {
            for width in 1..=16usize {
                let sched: MinorCycleScheduler = MinorCycleScheduler::new(&config_for(org, width)).unwrap();
                assert_eq!(
                    sched.minor_cycles_per_major(),
                    org.minor_cycles_per_major(width),
                    "{org} at width {width}: grid-derived cost diverged from the formula"
                );
            }
        }
    }

    #[test]
    fn roster_is_the_architectural_evaluation_order() {
        let sched: MinorCycleScheduler = MinorCycleScheduler::new(&EngineConfig::paper_4wide()).unwrap();
        assert_eq!(
            sched.roster(),
            ["Commit", "Writeback", "Lsq_refresh", "Issue", "Dispatch", "Fetch"]
        );
        assert_eq!(sched.description().name(), "optimized");
        assert_eq!(sched.width(), 4);
    }

    #[test]
    fn zero_width_is_an_error_not_a_panic() {
        let bad = EngineConfig {
            width: 0,
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(
            MinorCycleScheduler::<resim_obs::NullRecorder>::new(&bad).unwrap_err(),
            ConfigError::ZeroWidth
        );
    }

    #[test]
    fn invalid_description_is_an_error_not_a_panic() {
        let bad = EngineConfig {
            pipeline: PipelineDescription::new("empty", true, false, vec![]),
            ..EngineConfig::paper_4wide()
        };
        assert!(matches!(
            MinorCycleScheduler::<resim_obs::NullRecorder>::new(&bad).unwrap_err(),
            ConfigError::Pipeline(_)
        ));
    }

    #[test]
    fn activity_starts_at_zero_for_every_stage() {
        let sched: MinorCycleScheduler = MinorCycleScheduler::new(&EngineConfig::paper_4wide()).unwrap();
        let activity = sched.activity();
        assert_eq!(activity.len(), 6);
        assert!(activity.iter().all(|&(_, ops)| ops == 0));
    }
}
