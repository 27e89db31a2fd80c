//! The in situ placements investigated in the paper's evaluation (§4.3).

use crate::controls::DeviceSpec;
use crate::device_select::DeviceSelector;

/// Where in situ processing runs relative to the simulation, for a node
/// with `n_a` devices and one simulation rank per simulation device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// In situ on the host CPUs; data moves device → host.
    Host,
    /// In situ on the device where the data is generated; zero-copy.
    SameDevice,
    /// `k` devices per node reserved exclusively for in situ processing;
    /// the remaining `n_a - k` devices run the simulation and data moves
    /// device → device.
    DedicatedDevices(usize),
}

impl Placement {
    /// The four placements of Table 1, in the paper's order.
    pub fn paper_placements() -> [Placement; 4] {
        [
            Placement::Host,
            Placement::SameDevice,
            Placement::DedicatedDevices(1),
            Placement::DedicatedDevices(2),
        ]
    }

    /// Human-readable label (matches the paper's figures).
    pub fn label(&self) -> String {
        match self {
            Placement::Host => "all on host".to_string(),
            Placement::SameDevice => "on same device".to_string(),
            Placement::DedicatedDevices(1) => "1 dedicated device".to_string(),
            Placement::DedicatedDevices(k) => format!("{k} dedicated devices"),
        }
    }

    /// MPI ranks per node: one per *simulation* device (Table 1's
    /// "Ranks per node" column).
    ///
    /// # Panics
    /// Panics if the placement reserves every device, leaving none for
    /// the simulation.
    pub fn ranks_per_node(&self, n_devices: usize) -> usize {
        match self {
            Placement::Host | Placement::SameDevice => n_devices,
            Placement::DedicatedDevices(k) => {
                assert!(*k < n_devices, "cannot dedicate all {n_devices} devices to in situ");
                n_devices - k
            }
        }
    }

    /// Device selector assigning each simulation rank its device.
    pub fn sim_selector(&self, n_devices: usize) -> DeviceSelector {
        DeviceSelector { n_use: Some(self.ranks_per_node(n_devices)), stride: 1, offset: 0 }
    }

    /// The in situ device spec + selector implementing this placement
    /// through the back-end controls.
    pub fn insitu_spec(&self, n_devices: usize) -> (DeviceSpec, DeviceSelector) {
        match self {
            Placement::Host => (DeviceSpec::Host, DeviceSelector::default()),
            Placement::SameDevice => {
                (DeviceSpec::Auto, DeviceSelector { n_use: Some(n_devices), stride: 1, offset: 0 })
            }
            Placement::DedicatedDevices(k) => (
                DeviceSpec::Auto,
                DeviceSelector { n_use: Some(*k), stride: 1, offset: n_devices - k },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_select::select_device;

    const NA: usize = 4;

    fn insitu_device(p: Placement, rank: usize) -> Option<usize> {
        let (spec, sel) = p.insitu_spec(NA);
        match spec {
            DeviceSpec::Host => None,
            DeviceSpec::Auto => Some(select_device(rank, NA, &sel)),
            DeviceSpec::Explicit(d) => Some(d),
        }
    }

    #[test]
    fn table1_ranks_per_node() {
        assert_eq!(Placement::Host.ranks_per_node(NA), 4);
        assert_eq!(Placement::SameDevice.ranks_per_node(NA), 4);
        assert_eq!(Placement::DedicatedDevices(1).ranks_per_node(NA), 3);
        assert_eq!(Placement::DedicatedDevices(2).ranks_per_node(NA), 2);
    }

    #[test]
    fn host_placement_runs_in_situ_on_host() {
        for rank in 0..4 {
            assert_eq!(insitu_device(Placement::Host, rank), None);
        }
    }

    #[test]
    fn same_device_pairs_in_situ_with_simulation() {
        let sim = Placement::SameDevice.sim_selector(NA);
        for rank in 0..4 {
            let sim_dev = select_device(rank, NA, &sim);
            assert_eq!(insitu_device(Placement::SameDevice, rank), Some(sim_dev));
        }
    }

    #[test]
    fn one_dedicated_device_shares_the_last_gpu() {
        let p = Placement::DedicatedDevices(1);
        let sim = p.sim_selector(NA);
        for rank in 0..3 {
            assert_eq!(select_device(rank, NA, &sim), rank, "sim on devices 0..2");
            assert_eq!(insitu_device(p, rank), Some(3), "in situ shared on device 3");
        }
    }

    #[test]
    fn two_dedicated_devices_pair_ranks_with_gpus() {
        let p = Placement::DedicatedDevices(2);
        let sim = p.sim_selector(NA);
        assert_eq!(select_device(0, NA, &sim), 0);
        assert_eq!(select_device(1, NA, &sim), 1);
        assert_eq!(insitu_device(p, 0), Some(2));
        assert_eq!(insitu_device(p, 1), Some(3));
    }

    #[test]
    fn sim_and_insitu_devices_are_disjoint_for_dedicated() {
        for k in 1..NA {
            let p = Placement::DedicatedDevices(k);
            let sim = p.sim_selector(NA);
            for rank in 0..p.ranks_per_node(NA) {
                let sd = select_device(rank, NA, &sim);
                let id = insitu_device(p, rank).unwrap();
                assert!(sd < NA - k, "sim device {sd} in simulation pool");
                assert!(id >= NA - k, "in situ device {id} in dedicated pool");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot dedicate all")]
    fn dedicating_every_device_is_rejected() {
        Placement::DedicatedDevices(4).ranks_per_node(4);
    }

    #[test]
    fn labels() {
        assert_eq!(Placement::DedicatedDevices(2).label(), "2 dedicated devices");
    }
}
