//! Device classes and pool-level errors.

use core::fmt;

use cxl_fabric::FabricError;
use pcie_sim::{DeviceError, DeviceId};
use serde::Serialize;

/// The device classes the pool manages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum DeviceKind {
    /// Network interface.
    Nic,
    /// NVMe SSD.
    Ssd,
    /// Offload accelerator.
    Accel,
}

impl DeviceKind {
    /// Wire discriminant used in [`crate::proto::Msg::Assign`].
    pub fn as_u8(self) -> u8 {
        match self {
            DeviceKind::Nic => 1,
            DeviceKind::Ssd => 2,
            DeviceKind::Accel => 3,
        }
    }

    /// Parses the wire discriminant.
    pub fn from_u8(v: u8) -> Option<DeviceKind> {
        match v {
            1 => Some(DeviceKind::Nic),
            2 => Some(DeviceKind::Ssd),
            3 => Some(DeviceKind::Accel),
            _ => None,
        }
    }
}

/// Errors surfaced by pool operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// No device of the requested kind is assigned to the host.
    NotAssigned(DeviceKind),
    /// No live device of the requested kind exists in the pod.
    NoDevice(DeviceKind),
    /// A forwarded operation did not complete before its deadline.
    Timeout {
        /// The operation id that timed out.
        op: u64,
    },
    /// The remote agent reported a device failure for this operation.
    RemoteFailed {
        /// The operation id.
        op: u64,
        /// The device that failed.
        dev: DeviceId,
    },
    /// A local device error.
    Device(DeviceError),
    /// A fabric error (buffer placement, path failure…).
    Fabric(FabricError),
    /// The host has no control channel to this peer.
    NoLink(crate::agent::Peer),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::NotAssigned(k) => write!(f, "no {k:?} assigned to this host"),
            PoolError::NoDevice(k) => write!(f, "no live {k:?} in the pod"),
            PoolError::Timeout { op } => write!(f, "operation {op} timed out"),
            PoolError::RemoteFailed { op, dev } => {
                write!(f, "operation {op} failed on remote device {dev:?}")
            }
            PoolError::Device(e) => write!(f, "device error: {e}"),
            PoolError::Fabric(e) => write!(f, "fabric error: {e}"),
            PoolError::NoLink(p) => write!(f, "no control channel to {p:?}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<DeviceError> for PoolError {
    fn from(e: DeviceError) -> Self {
        PoolError::Device(e)
    }
}

impl From<FabricError> for PoolError {
    fn from(e: FabricError) -> Self {
        PoolError::Fabric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_discriminant_roundtrips() {
        for k in [DeviceKind::Nic, DeviceKind::Ssd, DeviceKind::Accel] {
            assert_eq!(DeviceKind::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(DeviceKind::from_u8(0), None);
        assert_eq!(DeviceKind::from_u8(42), None);
    }

    #[test]
    fn error_display_is_informative() {
        let e = PoolError::Timeout { op: 9 };
        assert!(e.to_string().contains('9'));
        let e = PoolError::NotAssigned(DeviceKind::Nic);
        assert!(e.to_string().contains("Nic"));
    }
}
