//! The shared device fleet: real calibrations annotated with the
//! cloud-market metadata (speed, price, advertised fidelity tier) the
//! orchestrator's placement and cost accounting use.

use qoncord_device::calibration::Calibration;
use qoncord_device::catalog;
use std::fmt;

/// Why a [`FleetDevice`] builder rejected a parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetDeviceError {
    /// `speed` must be a positive finite number.
    NonPositiveSpeed(f64),
    /// `cost_per_second` must be a positive finite number.
    NonPositiveCost(f64),
}

impl fmt::Display for FleetDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetDeviceError::NonPositiveSpeed(v) => {
                write!(f, "speed must be a positive finite number, got {v}")
            }
            FleetDeviceError::NonPositiveCost(v) => {
                write!(
                    f,
                    "cost per second must be a positive finite number, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for FleetDeviceError {}

/// One device of the shared fleet.
///
/// Training runs against the real [`Calibration`]; the *advertised
/// fidelity* is the marketed quality tier the placement policy sees (the
/// analog of [`qoncord_cloud::device::CloudDevice`]'s fidelity axis), which
/// spreads real calibrations over the policy's LF/HF split.
///
/// # Examples
///
/// ```
/// use qoncord_device::catalog;
/// use qoncord_orchestrator::fleet::FleetDevice;
///
/// let device = FleetDevice::new(catalog::ibmq_toronto())
///     .with_speed(2.0)
///     .and_then(|d| d.with_cost_per_second(4.0))
///     .unwrap();
/// assert_eq!(device.name(), "ibmq_toronto");
/// assert_eq!(device.speed(), 2.0);
/// // Invalid market metadata is a typed error, not a silent clamp.
/// assert!(device.with_speed(0.0).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct FleetDevice {
    calibration: Calibration,
    speed: f64,
    cost_per_second: f64,
    advertised_fidelity: f64,
}

impl FleetDevice {
    /// Wraps a calibration with unit speed, unit cost, and an advertised
    /// fidelity derived from the two-qubit error rate.
    pub fn new(calibration: Calibration) -> Self {
        // 10× the two-qubit error is a crude depth-10 survival estimate; it
        // only needs to order devices the way the market tiers them.
        let advertised = (1.0 - 10.0 * calibration.error_2q()).clamp(0.05, 1.0);
        FleetDevice {
            calibration,
            speed: 1.0,
            cost_per_second: 1.0,
            advertised_fidelity: advertised,
        }
    }

    /// Sets the relative speed (1.0 = reference, larger = faster).
    ///
    /// # Errors
    ///
    /// Returns [`FleetDeviceError::NonPositiveSpeed`] when `speed` is zero,
    /// negative, or not finite.
    pub fn with_speed(mut self, speed: f64) -> Result<Self, FleetDeviceError> {
        if !(speed.is_finite() && speed > 0.0) {
            return Err(FleetDeviceError::NonPositiveSpeed(speed));
        }
        self.speed = speed;
        Ok(self)
    }

    /// Sets the lease price per device-second.
    ///
    /// # Errors
    ///
    /// Returns [`FleetDeviceError::NonPositiveCost`] when `cost` is zero,
    /// negative, or not finite (a free device would make every cost
    /// comparison in the placement policy degenerate).
    pub fn with_cost_per_second(mut self, cost: f64) -> Result<Self, FleetDeviceError> {
        if !(cost.is_finite() && cost > 0.0) {
            return Err(FleetDeviceError::NonPositiveCost(cost));
        }
        self.cost_per_second = cost;
        Ok(self)
    }

    /// The device calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The device name.
    pub fn name(&self) -> &str {
        self.calibration.name()
    }

    /// Relative speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Lease price per device-second.
    pub fn cost_per_second(&self) -> f64 {
        self.cost_per_second
    }

    /// The marketed fidelity tier placement policies rank by.
    pub fn advertised_fidelity(&self) -> f64 {
        self.advertised_fidelity
    }
}

/// The reference fleet of the multi-tenant experiments: two low-fidelity
/// devices (ibmq_toronto twins) absorbing exploration traffic and one
/// high-fidelity device (ibmq_kolkata) priced 8× higher — mirroring the
/// paper's Table II price gap between quality tiers.
pub fn two_lf_one_hf_fleet() -> Vec<FleetDevice> {
    vec![
        FleetDevice::new(catalog::ibmq_toronto().renamed("lf_east")),
        FleetDevice::new(catalog::ibmq_toronto().renamed("lf_west")),
        FleetDevice::new(catalog::ibmq_kolkata().renamed("hf_core"))
            .with_cost_per_second(8.0)
            .expect("positive reference price"),
    ]
}

/// The split-experiment fleet: twin low-fidelity devices *and* twin
/// high-fidelity devices, so QuSplit-style restart splitting can fan both
/// the exploration tier and the fine-tuning tier. Twins share a
/// calibration model, which is what keeps split results bit-identical to
/// unsplit runs.
pub fn two_lf_two_hf_fleet() -> Vec<FleetDevice> {
    vec![
        FleetDevice::new(catalog::ibmq_toronto().renamed("lf_east")),
        FleetDevice::new(catalog::ibmq_toronto().renamed("lf_west")),
        FleetDevice::new(catalog::ibmq_kolkata().renamed("hf_north"))
            .with_cost_per_second(8.0)
            .expect("positive reference price"),
        FleetDevice::new(catalog::ibmq_kolkata().renamed("hf_south"))
            .with_cost_per_second(8.0)
            .expect("positive reference price"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advertised_fidelity_orders_lf_below_hf() {
        let lf = FleetDevice::new(catalog::ibmq_toronto());
        let hf = FleetDevice::new(catalog::ibmq_kolkata());
        assert!(lf.advertised_fidelity() < hf.advertised_fidelity());
        assert!(lf.advertised_fidelity() > 0.0);
        assert!(hf.advertised_fidelity() <= 1.0);
    }

    #[test]
    fn reference_fleet_has_unique_names_and_pricier_hf() {
        let fleet = two_lf_one_hf_fleet();
        assert_eq!(fleet.len(), 3);
        let names: Vec<&str> = fleet.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["lf_east", "lf_west", "hf_core"]);
        assert!(fleet[2].cost_per_second() > fleet[0].cost_per_second());
    }

    #[test]
    fn invalid_builder_values_yield_typed_errors() {
        let device = || FleetDevice::new(catalog::ibmq_toronto());
        assert_eq!(
            device().with_speed(0.0).unwrap_err(),
            FleetDeviceError::NonPositiveSpeed(0.0)
        );
        assert!(matches!(
            device().with_speed(f64::NAN).unwrap_err(),
            FleetDeviceError::NonPositiveSpeed(v) if v.is_nan()
        ));
        assert_eq!(
            device().with_cost_per_second(-1.0).unwrap_err(),
            FleetDeviceError::NonPositiveCost(-1.0)
        );
        assert_eq!(
            device().with_cost_per_second(0.0).unwrap_err(),
            FleetDeviceError::NonPositiveCost(0.0),
            "free devices are rejected, not silently accepted"
        );
        let err = device().with_speed(-2.0).unwrap_err();
        assert!(err.to_string().contains("speed"), "display names the field");
    }

    #[test]
    fn split_fleet_tiers_come_in_identical_twins() {
        let fleet = two_lf_two_hf_fleet();
        assert_eq!(fleet.len(), 4);
        assert_eq!(
            fleet[0].advertised_fidelity(),
            fleet[1].advertised_fidelity(),
            "LF twins advertise the same tier"
        );
        assert_eq!(
            fleet[2].advertised_fidelity(),
            fleet[3].advertised_fidelity(),
            "HF twins advertise the same tier"
        );
        assert!(fleet[0].advertised_fidelity() < fleet[2].advertised_fidelity());
        let names: Vec<&str> = fleet.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["lf_east", "lf_west", "hf_north", "hf_south"]);
    }

    #[test]
    fn valid_builder_values_chain() {
        let device = FleetDevice::new(catalog::ibmq_toronto())
            .with_speed(2.0)
            .and_then(|d| d.with_cost_per_second(4.0))
            .expect("all values valid");
        assert_eq!(device.speed(), 2.0);
        assert_eq!(device.cost_per_second(), 4.0);
    }
}
