//! Multicore platform description and static task-to-core partitions.

use std::fmt;

use crate::error::ModelError;

/// Identifier of one core on a [`Platform`] (`π_m` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core identifier with the given index.
    ///
    /// Indices are validated against a concrete platform when used, not
    /// here, so that `CoreId` stays a cheap plain value.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// Zero-based index of the core.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(index: usize) -> Self {
        CoreId(index)
    }
}

/// A platform of `M` identical cores (the paper's `M = {π_1, …, π_M}`).
///
/// # Examples
///
/// ```
/// use rts_model::platform::Platform;
///
/// let quad = Platform::new(4)?;
/// assert_eq!(quad.num_cores(), 4);
/// assert_eq!(quad.cores().count(), 4);
/// # Ok::<(), rts_model::error::ModelError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Platform {
    num_cores: usize,
}

impl Platform {
    /// Creates a platform with `num_cores` identical cores.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoCores`] if `num_cores` is zero.
    pub fn new(num_cores: usize) -> Result<Self, ModelError> {
        if num_cores == 0 {
            return Err(ModelError::NoCores);
        }
        Ok(Platform { num_cores })
    }

    /// A single-core platform (the degenerate case in which the
    /// semi-partitioned analysis collapses to classic uniprocessor RTA).
    #[must_use]
    pub fn uniprocessor() -> Self {
        Platform { num_cores: 1 }
    }

    /// The rover evaluation platform of the paper: a dual-core setup
    /// (two of the four Cortex-A53 cores disabled via `maxcpus=2`).
    #[must_use]
    pub fn dual_core() -> Self {
        Platform { num_cores: 2 }
    }

    /// Number of cores `M`.
    #[must_use]
    pub const fn num_cores(self) -> usize {
        self.num_cores
    }

    /// Iterates over all core identifiers, in index order.
    pub fn cores(self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores).map(CoreId::new)
    }

    /// Returns `Ok(core)` if `core` exists on this platform.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CoreOutOfRange`] otherwise.
    pub fn check_core(self, core: CoreId) -> Result<CoreId, ModelError> {
        if core.index() < self.num_cores {
            Ok(core)
        } else {
            Err(ModelError::CoreOutOfRange {
                core: core.index(),
                num_cores: self.num_cores,
            })
        }
    }
}

/// A static assignment of `n` tasks to cores (a *partition* in the paper's
/// sense: tasks never migrate away from their core).
///
/// Entry `i` is the core of task `i`; the indexing convention (which task
/// list the partition refers to) is fixed by the consumer, typically the
/// RT task list of a [`crate::system::System`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    assignment: Vec<CoreId>,
    num_cores: usize,
}

impl Partition {
    /// Creates a partition from an explicit task-to-core assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CoreOutOfRange`] if any entry refers to a core
    /// that does not exist on `platform`.
    pub fn new(platform: Platform, assignment: Vec<CoreId>) -> Result<Self, ModelError> {
        for &core in &assignment {
            platform.check_core(core)?;
        }
        Ok(Partition {
            assignment,
            num_cores: platform.num_cores(),
        })
    }

    /// Number of tasks covered by this partition.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` if the partition covers no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of cores of the platform the partition was built for.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Core assigned to task `task_index`.
    ///
    /// # Panics
    ///
    /// Panics if `task_index` is out of range.
    #[must_use]
    pub fn core_of(&self, task_index: usize) -> CoreId {
        self.assignment[task_index]
    }

    /// Indices of the tasks assigned to `core`, in task order
    /// (the paper's `Γ_R^{π_m}`).
    #[must_use]
    pub fn tasks_on(&self, core: CoreId) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c == core).then_some(i))
            .collect()
    }

    /// The raw assignment slice, task-indexed.
    #[must_use]
    pub fn as_slice(&self) -> &[CoreId] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_core_platform_is_rejected() {
        assert_eq!(Platform::new(0), Err(ModelError::NoCores));
    }

    #[test]
    fn cores_iterates_in_order() {
        let p = Platform::new(3).unwrap();
        let ids: Vec<usize> = p.cores().map(CoreId::index).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn check_core_validates_range() {
        let p = Platform::dual_core();
        assert!(p.check_core(CoreId::new(1)).is_ok());
        assert_eq!(
            p.check_core(CoreId::new(2)),
            Err(ModelError::CoreOutOfRange {
                core: 2,
                num_cores: 2
            })
        );
    }

    #[test]
    fn partition_rejects_out_of_range_core() {
        let p = Platform::dual_core();
        let err = Partition::new(p, vec![CoreId::new(0), CoreId::new(5)]);
        assert!(err.is_err());
    }

    #[test]
    fn tasks_on_groups_by_core() {
        let p = Platform::dual_core();
        let part = Partition::new(
            p,
            vec![
                CoreId::new(0),
                CoreId::new(1),
                CoreId::new(0),
                CoreId::new(1),
            ],
        )
        .unwrap();
        assert_eq!(part.tasks_on(CoreId::new(0)), vec![0, 2]);
        assert_eq!(part.tasks_on(CoreId::new(1)), vec![1, 3]);
        assert_eq!(part.core_of(2), CoreId::new(0));
        assert_eq!(part.len(), 4);
        assert!(!part.is_empty());
    }

    #[test]
    fn display_of_core_id() {
        assert_eq!(CoreId::new(1).to_string(), "core1");
    }
}
