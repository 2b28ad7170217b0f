//! Graph patterns `Q[x̄]`.
//!
//! A pattern is a small directed graph whose nodes are *pattern variables*
//! (the list `x̄` of entities the dependency talks about), each carrying a
//! label from `Γ` or the wildcard `_`, and whose edges carry labels.
//! Matching a pattern in a data graph is done by *homomorphism*
//! (Section 2): a mapping `h` from pattern nodes to graph nodes that
//! preserves node labels (wildcard matches anything) and maps every pattern
//! edge onto a graph edge with the same label.

use ngd_graph::{intern, resolve, Dir, Sym, WILDCARD};
use ngd_json::{FromJson, Json, ToJson};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A pattern variable (an index into the pattern's node list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl ToJson for Var {
    fn to_json(&self) -> Json {
        Json::Int(i64::from(self.0))
    }
}

impl FromJson for Var {
    fn from_json(value: &Json) -> ngd_json::Result<Self> {
        u32::from_json(value).map(Var)
    }
}

impl Var {
    /// Index of the variable in the pattern's variable list `x̄`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// A pattern node: a named variable with a label constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternNode {
    /// The variable's name as written in the rule (e.g. `x`, `m1`).
    pub name: String,
    /// The label the matched graph node must carry (or [`WILDCARD`]).
    pub label: Sym,
}

/// A pattern edge between two variables, with an edge-label constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternEdge {
    /// Source variable.
    pub src: Var,
    /// Destination variable.
    pub dst: Var,
    /// Required edge label.
    pub label: Sym,
}

impl PatternEdge {
    /// The edge seen from `var`: the direction it is read from `var`
    /// ([`Dir::Out`] when `var` is its source) and the variable at its
    /// other end, or `None` when `var` is neither endpoint.  A self-loop
    /// reads [`Dir::Out`] with `var` itself at the other end.
    pub fn from_var(&self, var: Var) -> Option<(Dir, Var)> {
        if self.src == var {
            Some((Dir::Out, self.dst))
        } else if self.dst == var {
            Some((Dir::In, self.src))
        } else {
            None
        }
    }
}

ngd_json::impl_json_struct!(PatternNode { name, label });
ngd_json::impl_json_struct!(PatternEdge { src, dst, label });

/// A graph pattern `Q[x̄]`.
///
/// Variables are numbered in insertion order, so declaration order is
/// stable and observable (the match planner uses it to break cost ties):
///
/// ```
/// use ngd_core::pattern::{Pattern, Var};
///
/// let mut q = Pattern::new();
/// let x = q.add_wildcard("x");          // matches any node label
/// let y = q.add_node("y", "date");
/// q.add_edge(x, y, "wasCreatedOnDate");
///
/// assert_eq!((x, y), (Var(0), Var(1)));
/// assert!(q.is_wildcard(x) && !q.is_wildcard(y));
/// assert_eq!(q.var_by_name("y"), Some(y));
/// assert_eq!((q.node_count(), q.edge_count()), (2, 1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pattern {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
}

ngd_json::impl_json_struct!(Pattern { nodes, edges });

impl Pattern {
    /// An empty pattern.
    pub fn new() -> Self {
        Pattern::default()
    }

    /// Add a pattern node with a variable name and a label (use `"_"` for
    /// the wildcard).  Variable names must be distinct; re-adding an
    /// existing name returns the existing variable.
    pub fn add_node(&mut self, name: &str, label: &str) -> Var {
        if let Some(var) = self.var_by_name(name) {
            return var;
        }
        let var = Var(self.nodes.len() as u32);
        self.nodes.push(PatternNode {
            name: name.to_owned(),
            label: intern(label),
        });
        var
    }

    /// Add a wildcard-labelled node.
    pub fn add_wildcard(&mut self, name: &str) -> Var {
        self.add_node(name, "_")
    }

    /// Add a directed edge between two pattern variables.
    pub fn add_edge(&mut self, src: Var, dst: Var, label: &str) -> &mut Self {
        self.edges.push(PatternEdge {
            src,
            dst,
            label: intern(label),
        });
        self
    }

    /// Number of pattern nodes `|V_Q|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges `|E_Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The pattern's size `|Q| = |V_Q| + |E_Q|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// All variables in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len() as u32).map(Var)
    }

    /// The node payload of a variable.
    pub fn node(&self, var: Var) -> &PatternNode {
        &self.nodes[var.index()]
    }

    /// The label constraint of a variable.
    pub fn label(&self, var: Var) -> Sym {
        self.nodes[var.index()].label
    }

    /// Is a variable's label the wildcard?
    pub fn is_wildcard(&self, var: Var) -> bool {
        self.label(var) == WILDCARD
    }

    /// Variable lookup by name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|idx| Var(idx as u32))
    }

    /// The variable's name.
    pub fn name(&self, var: Var) -> &str {
        &self.nodes[var.index()].name
    }

    /// All edges.
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Edges incident to `var` (in either direction).
    pub fn incident_edges(&self, var: Var) -> impl Iterator<Item = &PatternEdge> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.src == var || e.dst == var)
    }

    /// Undirected neighbours of a variable (with multiplicity removed).
    pub fn neighbors(&self, var: Var) -> Vec<Var> {
        let mut out: Vec<Var> = self
            .incident_edges(var)
            .map(|e| if e.src == var { e.dst } else { e.src })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Undirected shortest-path distances from `start` to every reachable
    /// variable.
    fn bfs_distances(&self, start: Var) -> HashMap<Var, usize> {
        let mut dist = HashMap::new();
        dist.insert(start, 0usize);
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for n in self.neighbors(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n) {
                    e.insert(d + 1);
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// Is the pattern connected (treated as an undirected graph)?
    /// The empty pattern is considered connected.
    pub fn is_connected(&self) -> bool {
        match self.vars().next() {
            None => true,
            Some(first) => self.bfs_distances(first).len() == self.node_count(),
        }
    }

    /// Connected components, each as a sorted list of variables.
    pub fn connected_components(&self) -> Vec<Vec<Var>> {
        let mut seen: HashSet<Var> = HashSet::new();
        let mut components = Vec::new();
        for var in self.vars() {
            if seen.contains(&var) {
                continue;
            }
            let dist = self.bfs_distances(var);
            let mut component: Vec<Var> = dist.keys().copied().collect();
            component.sort();
            for &v in &component {
                seen.insert(v);
            }
            components.push(component);
        }
        components
    }

    /// The diameter `d_Q` of the pattern: the largest undirected
    /// shortest-path distance between two variables in the same connected
    /// component.  (For a set Σ of NGDs, `dΣ` is the maximum `d_Q` over its
    /// patterns — see [`crate::ngd::RuleSet::diameter`].)
    pub fn diameter(&self) -> usize {
        let mut diameter = 0usize;
        for var in self.vars() {
            let dist = self.bfs_distances(var);
            if let Some(&d) = dist.values().max() {
                diameter = diameter.max(d);
            }
        }
        diameter
    }

    /// A human-readable description of the pattern topology.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if idx > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}:{}", node.name, resolve(node.label)));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "; {} -[{}]-> {}",
                self.name(e.src),
                resolve(e.label),
                self.name(e.dst)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Q1: x (wildcard) with wasCreatedOnDate / wasDestroyedOnDate
    /// edges to two date nodes.
    fn q1() -> Pattern {
        let mut q = Pattern::new();
        let x = q.add_wildcard("x");
        let y = q.add_node("y", "date");
        let z = q.add_node("z", "date");
        q.add_edge(x, y, "wasCreatedOnDate");
        q.add_edge(x, z, "wasDestroyedOnDate");
        q
    }

    #[test]
    fn building_blocks() {
        let q = q1();
        assert_eq!(q.node_count(), 3);
        assert_eq!(q.edge_count(), 2);
        assert_eq!(q.size(), 5);
        let x = q.var_by_name("x").unwrap();
        assert!(q.is_wildcard(x));
        assert_eq!(q.name(x), "x");
        assert_eq!(q.label(q.var_by_name("y").unwrap()), intern("date"));
        assert!(q.var_by_name("nope").is_none());
    }

    #[test]
    fn duplicate_names_return_same_variable() {
        let mut q = Pattern::new();
        let a = q.add_node("x", "place");
        let b = q.add_node("x", "place");
        assert_eq!(a, b);
        assert_eq!(q.node_count(), 1);
    }

    #[test]
    fn neighbors_and_incident_edges() {
        let q = q1();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        assert_eq!(q.neighbors(x).len(), 2);
        assert_eq!(q.neighbors(y), vec![x]);
        assert_eq!(q.incident_edges(x).count(), 2);
    }

    #[test]
    fn connectivity_and_components() {
        let mut q = q1();
        assert!(q.is_connected());
        assert_eq!(q.connected_components().len(), 1);
        // Add an isolated variable: now disconnected, 2 components.
        q.add_node("lonely", "thing");
        assert!(!q.is_connected());
        assert_eq!(q.connected_components().len(), 2);
    }

    #[test]
    fn empty_pattern_is_connected_with_zero_diameter() {
        let q = Pattern::new();
        assert!(q.is_connected());
        assert_eq!(q.diameter(), 0);
    }

    #[test]
    fn diameter_of_star_and_path() {
        // Star (Q1): diameter 2 (date — entity — date).
        assert_eq!(q1().diameter(), 2);
        // Path of 4 nodes: diameter 3.
        let mut q = Pattern::new();
        let a = q.add_node("a", "t");
        let b = q.add_node("b", "t");
        let c = q.add_node("c", "t");
        let d = q.add_node("d", "t");
        q.add_edge(a, b, "e");
        q.add_edge(b, c, "e");
        q.add_edge(c, d, "e");
        assert_eq!(q.diameter(), 3);
    }

    #[test]
    fn diameter_treats_edges_as_undirected() {
        // x -> y and x -> z: distance y..z is 2 even though both edges
        // point away from x.
        let q = q1();
        assert_eq!(q.diameter(), 2);
    }

    #[test]
    fn describe_mentions_all_parts() {
        let desc = q1().describe();
        assert!(desc.contains("x:_"));
        assert!(desc.contains("wasCreatedOnDate"));
        assert!(desc.contains("-["));
    }

    #[test]
    fn json_roundtrip() {
        let q = q1();
        let json = ngd_json::to_string(&q);
        let back: Pattern = ngd_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }
}
