//! Per-figure/table experiment drivers.
//!
//! Each module regenerates one artefact of the paper's evaluation
//! section (Fig. 9, Tables I and II) or of the extensions beyond it
//! (the `fig_*` sweeps). Every sweep runs its grid through one
//! crate-private helper, `sweep`. Each `fig_*` sweep module
//! has exactly one grid, the one whose CSV is committed under
//! `results/`, one `run` entry point and one acceptance `check` over
//! the table `run` returns.

use crate::parallel::parallel_map_with;
use crate::runner::{pooled_workers, CellRunner};
use rtr_core::TemplateRegistry;
use rtr_manager::SimError;
use std::sync::Arc;

pub mod faults;
pub mod fig9;
pub mod fleet;
pub mod prefetch;
pub mod qos;
pub mod table1;
pub mod table2;

/// Runs `cell` on every grid point over up to `workers`
/// [`CellRunner`]s sharing one design-time registry (each cell builds
/// its own engine), and returns the results in grid order. The first failing cell in grid order decides
/// the error, so the outcome does not depend on the worker count.
pub(crate) fn sweep<T, R, F>(grid: Vec<T>, workers: usize, cell: F) -> Result<Vec<R>, SimError>
where
    T: Send,
    R: Send,
    F: Fn(&mut CellRunner, T) -> Result<R, SimError> + Sync,
{
    let registry = Arc::new(TemplateRegistry::new());
    parallel_map_with(grid, workers, pooled_workers(&registry), cell)
        .into_iter()
        .collect()
}
