//! Physical network model for the Aspen sensor-network join reproduction.
//!
//! This crate models the *deployment* layer of the paper: sensor node
//! positions, unit-disk radio connectivity, and the topology families used in
//! the evaluation (random deployments with 6/7/8/13 average neighbors, a
//! regular grid, and the Intel Research-Berkeley lab layout).
//!
//! Everything here is pure geometry and graph structure; message dynamics
//! live in `sensor-sim`, and routing state lives in `sensor-routing`.

mod cells;
pub mod gateway;
pub mod gen;
pub mod geom;
pub mod intel;
#[cfg(test)]
mod reference;
pub mod topology;

pub use gateway::{Direction, DirectionStats, GatewayChannel, GatewayLink};
pub use gen::{
    grid, random_with_degree, try_random_with_degree, DensityClass, NoTopology, TopologySpec,
};
pub use geom::{Point, Rect};
pub use topology::{NodeId, Topology};
