//! Three-stage fat-tree topology generator (PortLand model [45], Table 3).
//!
//! A `k`-port fat tree has `(k/2)²` core routers, `k` pods each with `k/2`
//! aggregation and `k/2` top-of-rack (edge) switches, and `k/2` servers per
//! ToR — `k³/4` servers total. The paper's three topologies:
//!
//! | | ports | cores | aggs | ToRs | servers | total |
//! |-|-------|-------|------|------|---------|-------|
//! | A | 16 | 64 | 128 | 128 | 1,024 | 1,344 |
//! | B | 24 | 144 | 288 | 288 | 3,456 | 4,176 |
//! | C | 48 | 576 | 1,152 | 1,152 | 27,648 | 30,528 |

use indaas_deps::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};

/// Configuration of a fat-tree topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FatTreeConfig {
    /// Switch port count `k` (must be even, ≥ 4).
    pub ports: usize,
    /// Cap on the number of distinct uplink paths enumerated per server
    /// when emitting route records (`None` = all `(k/2)²` paths). The paper
    /// materializes every path; for topology C that is 576 routes per
    /// server, so large-scale runs set a cap and report it, as
    /// `e2ebench/README.md` does with the record count of its topology.
    pub max_paths_per_server: Option<usize>,
}

impl FatTreeConfig {
    /// Topology A of Table 3 (16 ports).
    pub fn topology_a() -> Self {
        FatTreeConfig {
            ports: 16,
            max_paths_per_server: None,
        }
    }

    /// Topology B of Table 3 (24 ports).
    pub fn topology_b() -> Self {
        FatTreeConfig {
            ports: 24,
            max_paths_per_server: None,
        }
    }

    /// Topology C of Table 3 (48 ports).
    pub fn topology_c() -> Self {
        FatTreeConfig {
            ports: 48,
            max_paths_per_server: None,
        }
    }
}

/// A generated fat tree: device names plus route enumeration.
#[derive(Clone, Debug)]
pub struct FatTree {
    config: FatTreeConfig,
}

impl FatTree {
    /// Builds the topology for a config.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is odd or below 4.
    pub fn new(config: FatTreeConfig) -> Self {
        assert!(
            config.ports >= 4 && config.ports.is_multiple_of(2),
            "fat tree needs an even port count >= 4"
        );
        FatTree { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FatTreeConfig {
        &self.config
    }

    fn half(&self) -> usize {
        self.config.ports / 2
    }

    /// Number of core routers: `(k/2)²`.
    pub fn num_cores(&self) -> usize {
        self.half() * self.half()
    }

    /// Number of aggregation switches: `k·k/2`.
    pub fn num_aggs(&self) -> usize {
        self.config.ports * self.half()
    }

    /// Number of ToR (edge) switches: `k·k/2`.
    pub fn num_tors(&self) -> usize {
        self.config.ports * self.half()
    }

    /// Number of servers: `k³/4`.
    pub fn num_servers(&self) -> usize {
        self.config.ports * self.half() * self.half()
    }

    /// Total device count (servers + switches + routers), as in Table 3.
    pub fn total_devices(&self) -> usize {
        self.num_cores() + self.num_aggs() + self.num_tors() + self.num_servers()
    }

    /// Core router name by index.
    pub fn core_name(&self, i: usize) -> String {
        format!("core-{i}")
    }

    /// Aggregation switch name: pod `p`, slot `j`.
    pub fn agg_name(&self, p: usize, j: usize) -> String {
        format!("agg-{p}-{j}")
    }

    /// ToR switch name: pod `p`, slot `e`.
    pub fn tor_name(&self, p: usize, e: usize) -> String {
        format!("tor-{p}-{e}")
    }

    /// Server name: pod `p`, ToR slot `e`, position `s` under the ToR.
    pub fn server_name(&self, p: usize, e: usize, s: usize) -> String {
        format!("server-{p}-{e}-{s}")
    }

    /// All server names, in pod/ToR/slot order.
    pub fn servers(&self) -> Vec<String> {
        let h = self.half();
        let mut out = Vec::with_capacity(self.num_servers());
        for p in 0..self.config.ports {
            for e in 0..h {
                for s in 0..h {
                    out.push(self.server_name(p, e, s));
                }
            }
        }
        out
    }

    /// Enumerates uplink paths (`ToR → agg → core`) for the server at pod
    /// `p`, ToR `e`. Aggregation switch `j` of a pod connects to cores
    /// `j*k/2 ..= j*k/2 + k/2 - 1`, the standard fat-tree striping.
    pub fn uplink_paths(&self, p: usize, e: usize) -> Vec<Vec<String>> {
        let h = self.half();
        let cap = self.config.max_paths_per_server.unwrap_or(usize::MAX);
        let mut paths = Vec::with_capacity((h * h).min(cap));
        'outer: for j in 0..h {
            for c in 0..h {
                if paths.len() >= cap {
                    break 'outer;
                }
                let core = j * h + c;
                paths.push(vec![
                    self.tor_name(p, e),
                    self.agg_name(p, j),
                    self.core_name(core),
                ]);
            }
        }
        paths
    }

    /// Hardware and software records for one server: per-server CPU and
    /// disk instances plus a storage stack whose packages are shared across
    /// the whole fleet — the hidden software dependency that makes Figure
    /// 7's risk-group universe interesting.
    pub fn server_records(&self, server: &str) -> Vec<DependencyRecord> {
        vec![
            DependencyRecord::Hardware(HardwareDep {
                hw: server.to_string(),
                hw_type: "CPU".into(),
                dep: format!("{server}-cpu"),
            }),
            DependencyRecord::Hardware(HardwareDep {
                hw: server.to_string(),
                hw_type: "Disk".into(),
                dep: format!("{server}-disk"),
            }),
            DependencyRecord::Software(SoftwareDep {
                pgm: format!("{server}-store"),
                hw: server.to_string(),
                deps: vec!["libc6".into(), "libssl1.0.0".into(), "zlib1g".into()],
            }),
        ]
    }

    /// Full ground-truth records (network + hardware + software) for a
    /// subset of servers — the workload generator for deployment audits.
    pub fn deployment_records(&self, servers: &[(usize, usize, usize)]) -> Vec<DependencyRecord> {
        let mut out = Vec::new();
        for &(p, e, s) in servers {
            let server = self.server_name(p, e, s);
            for path in self.uplink_paths(p, e) {
                out.push(DependencyRecord::Network(NetworkDep {
                    src: server.clone(),
                    dst: "Internet".into(),
                    route: path,
                }));
            }
            out.extend(self.server_records(&server));
        }
        out
    }

    /// Ground-truth network dependency records: one route record per
    /// enumerated path per server, destination "Internet" (the shape of
    /// Figure 3).
    pub fn network_records(&self) -> Vec<DependencyRecord> {
        let h = self.half();
        let mut out = Vec::new();
        for p in 0..self.config.ports {
            for e in 0..h {
                let paths = self.uplink_paths(p, e);
                for s in 0..h {
                    let server = self.server_name(p, e, s);
                    for path in &paths {
                        out.push(DependencyRecord::Network(NetworkDep {
                            src: server.clone(),
                            dst: "Internet".into(),
                            route: path.clone(),
                        }));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_topology_a_counts() {
        let t = FatTree::new(FatTreeConfig::topology_a());
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.num_aggs(), 128);
        assert_eq!(t.num_tors(), 128);
        assert_eq!(t.num_servers(), 1024);
        assert_eq!(t.total_devices(), 1344);
    }

    #[test]
    fn table3_topology_b_counts() {
        let t = FatTree::new(FatTreeConfig::topology_b());
        assert_eq!(t.num_cores(), 144);
        assert_eq!(t.num_aggs(), 288);
        assert_eq!(t.num_tors(), 288);
        assert_eq!(t.num_servers(), 3456);
        assert_eq!(t.total_devices(), 4176);
    }

    #[test]
    fn table3_topology_c_counts() {
        let t = FatTree::new(FatTreeConfig::topology_c());
        assert_eq!(t.num_cores(), 576);
        assert_eq!(t.num_aggs(), 1152);
        assert_eq!(t.num_tors(), 1152);
        assert_eq!(t.num_servers(), 27648);
        assert_eq!(t.total_devices(), 30528);
    }

    #[test]
    fn uplink_paths_count_and_shape() {
        let t = FatTree::new(FatTreeConfig {
            ports: 4,
            max_paths_per_server: None,
        });
        let paths = t.uplink_paths(0, 0);
        // (k/2)^2 = 4 paths, each ToR → agg → core.
        assert_eq!(paths.len(), 4);
        for path in &paths {
            assert_eq!(path.len(), 3);
            assert!(path[0].starts_with("tor-0-"));
            assert!(path[1].starts_with("agg-0-"));
            assert!(path[2].starts_with("core-"));
        }
        // Paths must be distinct.
        let unique: std::collections::HashSet<_> = paths.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn path_cap_respected() {
        let t = FatTree::new(FatTreeConfig {
            ports: 8,
            max_paths_per_server: Some(3),
        });
        assert_eq!(t.uplink_paths(1, 1).len(), 3);
    }

    #[test]
    fn core_striping_covers_all_cores() {
        let t = FatTree::new(FatTreeConfig {
            ports: 4,
            max_paths_per_server: None,
        });
        let mut cores: Vec<String> = t
            .uplink_paths(0, 0)
            .into_iter()
            .map(|p| p[2].clone())
            .collect();
        cores.sort();
        cores.dedup();
        assert_eq!(cores.len(), t.num_cores(), "pod must reach every core");
    }

    #[test]
    fn network_records_count() {
        let t = FatTree::new(FatTreeConfig {
            ports: 4,
            max_paths_per_server: None,
        });
        // 16 servers × 4 paths = 64 records.
        assert_eq!(t.network_records().len(), 64);
    }

    #[test]
    fn server_enumeration_matches_count() {
        let t = FatTree::new(FatTreeConfig {
            ports: 6,
            max_paths_per_server: None,
        });
        let servers = t.servers();
        assert_eq!(servers.len(), t.num_servers());
        let unique: std::collections::HashSet<_> = servers.iter().collect();
        assert_eq!(unique.len(), servers.len());
    }

    #[test]
    #[should_panic(expected = "even port count")]
    fn odd_ports_rejected() {
        let _ = FatTree::new(FatTreeConfig {
            ports: 5,
            max_paths_per_server: None,
        });
    }
}
