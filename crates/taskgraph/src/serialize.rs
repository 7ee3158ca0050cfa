//! Graph serialisation: a JSON interchange format.
//!
//! `TaskGraph` itself is not directly `Deserialize` because arbitrary
//! adjacency data could violate its invariants; instead deserialisation
//! goes through [`GraphSpec`], which is re-validated by the normal
//! builder path.

use crate::graph::{ConfigId, GraphError, NodeId, TaskGraph, TaskGraphBuilder};
use serde::{Deserialize, Serialize};

/// Flat, serde-friendly description of a task graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Graph label.
    pub name: String,
    /// Node list; index in this list is the node id.
    pub nodes: Vec<NodeSpec>,
    /// Edges as `(from, to)` node-index pairs.
    pub edges: Vec<(u32, u32)>,
}

/// One node of a [`GraphSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node label.
    pub name: String,
    /// Configuration (bitstream) id.
    pub config: u32,
    /// Execution time in microseconds.
    pub exec_us: u64,
}

impl From<&TaskGraph> for GraphSpec {
    fn from(g: &TaskGraph) -> Self {
        GraphSpec {
            name: g.name().to_string(),
            nodes: g
                .nodes()
                .iter()
                .map(|n| NodeSpec {
                    name: n.name.clone(),
                    config: n.config.0,
                    exec_us: n.exec_time.as_us(),
                })
                .collect(),
            edges: g
                .node_ids()
                .flat_map(|n| g.succs(n).iter().map(move |s| (n.0, s.0)))
                .collect(),
        }
    }
}

impl TryFrom<GraphSpec> for TaskGraph {
    type Error = GraphError;

    fn try_from(spec: GraphSpec) -> Result<Self, GraphError> {
        let mut b = TaskGraphBuilder::new(spec.name);
        for n in spec.nodes {
            b.node(
                n.name,
                ConfigId(n.config),
                rtr_sim::SimDuration::from_us(n.exec_us),
            );
        }
        for (from, to) in spec.edges {
            b.edge(NodeId(from), NodeId(to));
        }
        b.build()
    }
}

/// Serialises `g` to pretty JSON.
pub fn to_json(g: &TaskGraph) -> String {
    serde_json::to_string_pretty(&GraphSpec::from(g)).expect("GraphSpec serialisation is total")
}

/// Errors from [`from_json`].
#[derive(Debug)]
pub enum ParseError {
    /// The input is not valid JSON for a [`GraphSpec`].
    Json(serde_json::Error),
    /// The JSON decoded but describes an invalid graph.
    Graph(GraphError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Json(e) => write!(f, "invalid graph JSON: {e}"),
            ParseError::Graph(e) => write!(f, "invalid graph structure: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a graph from JSON produced by [`to_json`] (or hand-written in
/// the same schema), re-validating all invariants.
pub fn from_json(json: &str) -> Result<TaskGraph, ParseError> {
    let spec: GraphSpec = serde_json::from_str(json).map_err(ParseError::Json)?;
    TaskGraph::try_from(spec).map_err(ParseError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn json_round_trip_preserves_graph() {
        for g in benchmarks::multimedia_suite() {
            let json = to_json(&g);
            let back = from_json(&json).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn json_round_trip_fig_graphs() {
        for g in [
            benchmarks::fig2_tg1(),
            benchmarks::fig2_tg2(),
            benchmarks::fig3_tg1(),
            benchmarks::fig3_tg2(),
        ] {
            assert_eq!(from_json(&to_json(&g)).unwrap(), g);
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(from_json("{nope"), Err(ParseError::Json(_))));
    }

    #[test]
    fn rejects_structurally_invalid_graphs() {
        let json = r#"{
            "name": "bad",
            "nodes": [
                {"name": "a", "config": 1, "exec_us": 1000},
                {"name": "b", "config": 2, "exec_us": 1000}
            ],
            "edges": [[0, 1], [1, 0]]
        }"#;
        match from_json(json) {
            Err(ParseError::Graph(GraphError::Cycle(_))) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_exec_time_via_json() {
        let json = r#"{
            "name": "bad",
            "nodes": [{"name": "a", "config": 1, "exec_us": 0}],
            "edges": []
        }"#;
        assert!(matches!(
            from_json(json),
            Err(ParseError::Graph(GraphError::ZeroExecTime(_)))
        ));
    }
}
