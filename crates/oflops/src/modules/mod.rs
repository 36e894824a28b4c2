//! The measurement modules shipped with OFLOPS-turbo-rs.

pub mod add_latency;
pub mod consistency;
pub mod echo_load;
pub mod flow_churn;
pub mod packet_in;
pub mod probe;
pub mod stats_accuracy;

pub use add_latency::{AddLatencyModule, AddLatencyReport, AddLatencyState};
pub use consistency::{ConsistencyModule, ConsistencyReport, ConsistencyState};
pub use echo_load::{EchoLoadModule, EchoLoadState};
pub use flow_churn::{FlowChurnModule, FlowChurnState};
pub use packet_in::{PacketInModule, PacketInState};
pub use probe::{rule_ip, RoundRobinDst, RULE_IP_PERIOD};
pub use stats_accuracy::{PollSample, StatsAccuracyModule, StatsAccuracyState};
