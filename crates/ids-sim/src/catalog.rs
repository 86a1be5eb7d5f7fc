//! Table 1 — the paper's catalog of example security tasks.
//!
//! Qualitative, but kept executable: each catalog entry names the class,
//! representative tools, and which piece of this workspace realizes it
//! (or that none does), so the Table 1 regeneration binary prints a live
//! inventory rather than a string constant pasted from the PDF.

/// One class of security monitoring task (paper Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SecurityTaskClass {
    /// File-system integrity checking.
    FileSystemChecking,
    /// Network packet monitoring.
    NetworkMonitoring,
    /// Hardware event monitoring via performance counters.
    HardwareEventMonitoring,
    /// Application-specific behavioral checks.
    ApplicationSpecificChecking,
}

impl SecurityTaskClass {
    /// All classes in the paper's Table 1 order.
    #[must_use]
    pub const fn all() -> [SecurityTaskClass; 4] {
        [
            SecurityTaskClass::FileSystemChecking,
            SecurityTaskClass::NetworkMonitoring,
            SecurityTaskClass::HardwareEventMonitoring,
            SecurityTaskClass::ApplicationSpecificChecking,
        ]
    }

    /// The class name as printed in Table 1.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SecurityTaskClass::FileSystemChecking => "File-system checking",
            SecurityTaskClass::NetworkMonitoring => "Network packet monitoring",
            SecurityTaskClass::HardwareEventMonitoring => "Hardware event monitoring",
            SecurityTaskClass::ApplicationSpecificChecking => "Application specific checking",
        }
    }

    /// Representative approaches/tools (Table 1, right column).
    #[must_use]
    pub const fn tools(self) -> &'static str {
        match self {
            SecurityTaskClass::FileSystemChecking => "Tripwire, AIDE, etc.",
            SecurityTaskClass::NetworkMonitoring => "Bro, Snort, etc.",
            SecurityTaskClass::HardwareEventMonitoring => {
                "Statistical checks using performance monitors (perf, OProfile, etc.)"
            }
            SecurityTaskClass::ApplicationSpecificChecking => {
                "Behavior-based detection (see paper refs. [11-13, 24])"
            }
        }
    }

    /// Where this workspace realizes (or models) the class, or that it
    /// does not.
    #[must_use]
    pub const fn realized_by(self) -> &'static str {
        match self {
            SecurityTaskClass::FileSystemChecking => {
                "ids_sim::tripwire (baseline DB + sweep over ids_sim::filesystem)"
            }
            SecurityTaskClass::NetworkMonitoring => {
                "not realized: no workload of this reproduction monitors packets"
            }
            SecurityTaskClass::HardwareEventMonitoring => {
                "not realized: no workload of this reproduction reads hardware counters"
            }
            SecurityTaskClass::ApplicationSpecificChecking => {
                "ids_sim::kmod (expected-profile checker, the paper's custom task)"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_classes_in_paper_order() {
        let all = SecurityTaskClass::all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].name(), "File-system checking");
        assert!(all[0].tools().contains("Tripwire"));
        assert!(all[3].realized_by().contains("kmod"));
    }

    #[test]
    fn every_class_is_documented() {
        for class in SecurityTaskClass::all() {
            assert!(!class.name().is_empty());
            assert!(!class.tools().is_empty());
            assert!(!class.realized_by().is_empty());
        }
    }
}
