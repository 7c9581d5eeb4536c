//! The shard file: [`LocalShard`] on the [`Wire`] codec (DESIGN.md §10).
//!
//! A shard crosses a process boundary as its own flat arrays in
//! declaration order, each a `u32` count followed by fixed-width
//! little-endian elements — nothing per global edge, nothing another
//! machine owns. The bytes come from a file, so decode trusts none of
//! them: a count is checked against the bytes actually present before
//! anything is reserved for it, and [`LocalShard::validate`] re-establishes
//! every condition the engine indexes by before the shard is handed out.
//! [`LocalShard::check_fits`] then ties a decoded shard to the run it was
//! loaded for.

use lazygraph_graph::{MachineId, VertexId};
use lazygraph_net::{NetError, Wire, WireReader};

use super::{LocalShard, PlacementShape, NO_LOCAL};

fn put_array<T: Wire>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = T>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// The count of an array whose elements take at least `width` bytes each,
/// checked against the bytes present: a corrupt count is a
/// [`NetError::Truncated`] before it is a reservation.
fn counted(r: &mut WireReader<'_>, width: usize) -> Result<usize, NetError> {
    let len = u32::decode(r)? as usize;
    let needed = len.saturating_mul(width);
    if needed > r.remaining() {
        return Err(NetError::Truncated {
            needed,
            have: r.remaining(),
        });
    }
    Ok(len)
}

fn array<T>(
    r: &mut WireReader<'_>,
    width: usize,
    item: impl Fn(&mut WireReader<'_>) -> Result<T, NetError>,
) -> Result<Vec<T>, NetError> {
    let len = counted(r, width)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(item(r)?);
    }
    Ok(out)
}

fn machine_id(r: &mut WireReader<'_>) -> Result<MachineId, NetError> {
    u16::decode(r).map(MachineId)
}

fn malformed<T>(detail: String) -> Result<T, NetError> {
    Err(NetError::Malformed {
        ty: "LocalShard",
        detail,
    })
}

impl Wire for LocalShard {
    fn encode(&self, out: &mut Vec<u8>) {
        // No `..`: an array added to the shard does not compile until it
        // is shipped (decode's struct literal is exhaustive by itself).
        let LocalShard {
            machine,
            globals,
            route,
            is_master,
            master_of,
            mirror_offsets,
            mirror_machines: _,
            replicated,
            global_out_degree,
            global_in_degree,
            global_degree,
            out_offsets,
            out_targets,
            out_weights,
            out_parallel,
        } = self;
        machine.0.encode(out);
        put_array(out, globals.iter().map(|v| v.0));
        put_array(out, route.iter().copied());
        is_master.encode(out);
        put_array(out, master_of.iter().map(|m| m.0));
        // The file keeps one counted list per local (the layout it had when
        // a shard held one box per local); memory keeps them flat.
        ((mirror_offsets.len() - 1) as u32).encode(out);
        for l in 0..mirror_offsets.len() - 1 {
            put_array(out, self.mirrors(l as u32).iter().map(|m| m.0));
        }
        replicated.encode(out);
        global_out_degree.encode(out);
        global_in_degree.encode(out);
        global_degree.encode(out);
        out_offsets.encode(out);
        out_targets.encode(out);
        out_weights.encode(out);
        out_parallel.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let machine = machine_id(r)?;
        let globals = array(r, 4, |r| u32::decode(r).map(VertexId))?;
        let route = array(r, 4, u32::decode)?.into_boxed_slice();
        let is_master = array(r, 1, bool::decode)?;
        let master_of = array(r, 2, machine_id)?;
        // One counted list per local, flattened as it is read.
        let lists = counted(r, 4)?;
        let mut mirror_offsets = Vec::with_capacity(lists + 1);
        mirror_offsets.push(0);
        let mut mirror_machines = Vec::new();
        for _ in 0..lists {
            for _ in 0..counted(r, 2)? {
                mirror_machines.push(machine_id(r)?);
            }
            mirror_offsets.push(mirror_machines.len() as u32);
        }
        let shard = LocalShard {
            machine,
            globals,
            route,
            is_master,
            master_of,
            mirror_offsets,
            mirror_machines,
            replicated: array(r, 4, u32::decode)?,
            global_out_degree: array(r, 4, u32::decode)?,
            global_in_degree: array(r, 4, u32::decode)?,
            global_degree: array(r, 4, u32::decode)?,
            out_offsets: array(r, 4, u32::decode)?,
            out_targets: array(r, 4, u32::decode)?,
            out_weights: array(r, 4, f32::decode)?,
            out_parallel: array(r, 1, bool::decode)?,
        };
        shard.validate()?;
        Ok(shard)
    }
}

impl LocalShard {
    /// Checks every condition the shard keeps among its own arrays — the
    /// ones the engine indexes by without looking. `decode` runs it, so a
    /// shard that came out of a file has passed; a violation is a typed
    /// [`NetError::Malformed`].
    pub fn validate(&self) -> Result<(), NetError> {
        let nl = self.globals.len();
        if nl >= NO_LOCAL as usize {
            return malformed(format!("{nl} locals overflow the local-id space"));
        }
        for (name, len) in [
            ("is_master", self.is_master.len()),
            ("master_of", self.master_of.len()),
            ("global_out_degree", self.global_out_degree.len()),
            ("global_in_degree", self.global_in_degree.len()),
            ("global_degree", self.global_degree.len()),
        ] {
            if len != nl {
                return malformed(format!("{name} has {len} entries for {nl} locals"));
            }
        }

        // The CSR: nl + 1 monotone offsets from 0 to the edge count, three
        // parallel edge arrays, every target a local id.
        let ne = self.out_targets.len();
        if self.out_weights.len() != ne || self.out_parallel.len() != ne {
            return malformed(format!(
                "edge arrays disagree: {ne} targets, {} weights, {} modes",
                self.out_weights.len(),
                self.out_parallel.len()
            ));
        }
        if self.out_offsets.len() != nl + 1 {
            return malformed(format!(
                "out_offsets has {} entries for {nl} locals",
                self.out_offsets.len()
            ));
        }
        if self.out_offsets[0] != 0
            || self.out_offsets[nl] as usize != ne
            || self.out_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return malformed(format!("out_offsets is not a monotone walk from 0 to {ne}"));
        }
        if let Some(&t) = self.out_targets.iter().find(|&&t| t as usize >= nl) {
            return malformed(format!("edge target {t} is not one of {nl} locals"));
        }

        // `globals` and the route table are the two directions of one
        // bijection: every local's gid routes back to it, and the table
        // routes nothing else.
        for (l, v) in self.globals.iter().enumerate() {
            if self.route.get(v.index()) != Some(&(l as u32)) {
                return malformed(format!("route table does not send {v:?} to local {l}"));
            }
        }
        let routed = self.route.iter().filter(|&&l| l != NO_LOCAL).count();
        if routed != nl {
            return malformed(format!("route table has {routed} entries for {nl} locals"));
        }

        // The mirror lists: a monotone walk over one array, as the CSR is.
        if self.mirror_offsets.len() != nl + 1 {
            return malformed(format!(
                "mirrors has {} entries for {nl} locals",
                self.mirror_offsets.len().saturating_sub(1)
            ));
        }
        if self.mirror_offsets[0] != 0
            || self.mirror_offsets[nl] as usize != self.mirror_machines.len()
            || self.mirror_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return malformed(format!(
                "mirror_offsets is not a monotone walk from 0 to {}",
                self.mirror_machines.len()
            ));
        }
        for l in 0..nl {
            let mirrors = self.mirrors(l as u32);
            if mirrors.contains(&self.machine) || mirrors.windows(2).any(|w| w[0] >= w[1]) {
                return malformed(format!(
                    "local {l}: mirror list {mirrors:?} is not sorted other machines"
                ));
            }
            if self.is_master[l] != (self.master_of[l] == self.machine) {
                return malformed(format!(
                    "local {l}: is_master disagrees with master {:?}",
                    self.master_of[l]
                ));
            }
        }
        let with_mirrors = (0..nl as u32).filter(|&l| self.has_mirrors(l));
        if !with_mirrors.eq(self.replicated.iter().copied()) {
            return malformed("replicated is not the locals that have mirrors".into());
        }
        Ok(())
    }

    /// Checks that this shard is machine `me`'s part of a placement of
    /// `shape`: its own rank, a route table over the placement's vertices,
    /// and no machine id outside the placement.
    pub fn check_fits(&self, me: usize, shape: &PlacementShape) -> Result<(), NetError> {
        if self.machine.index() != me {
            return malformed(format!(
                "shard of machine {} loaded as machine {me}",
                self.machine
            ));
        }
        if self.route.len() != shape.num_global_vertices {
            return malformed(format!(
                "route table covers {} vertices, the run has {}",
                self.route.len(),
                shape.num_global_vertices
            ));
        }
        let mut machines = std::iter::once(&self.machine)
            .chain(&self.master_of)
            .chain(&self.mirror_machines);
        if let Some(m) = machines.find(|m| m.index() >= shape.num_machines) {
            return malformed(format!(
                "machine {m} is outside a {}-machine run",
                shape.num_machines
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_graph, PartitionStrategy, SplitterConfig};
    use lazygraph_graph::generators::{rmat, RmatConfig};

    fn shard() -> LocalShard {
        let g = rmat(RmatConfig::graph500(6, 4, 3));
        let dg = partition_graph(
            &g,
            3,
            PartitionStrategy::Coordinated,
            &SplitterConfig::default(),
            false,
        );
        dg.shards[1].clone()
    }

    /// Breaks one condition and expects `validate` — and therefore decode,
    /// which the broken shard's own encoding is fed to — to name it.
    fn rejects(mention: &str, damage: impl FnOnce(&mut LocalShard)) {
        let mut s = shard();
        s.validate().expect("a built shard is valid");
        damage(&mut s);
        for err in [
            s.validate().err(),
            LocalShard::from_wire(&s.to_wire()).err(),
        ] {
            match err {
                Some(NetError::Malformed {
                    ty: "LocalShard",
                    detail,
                }) => {
                    assert!(
                        detail.contains(mention),
                        "`{detail}` does not mention `{mention}`"
                    )
                }
                other => panic!("expected a malformed shard ({mention}), got {other:?}"),
            }
        }
    }

    #[test]
    fn per_local_arrays_must_have_one_entry_per_local() {
        rejects("is_master has", |s| s.is_master.push(false));
        rejects("master_of has", |s| {
            s.master_of.pop();
        });
        rejects("mirrors has", |s| {
            s.mirror_offsets.push(s.mirror_machines.len() as u32)
        });
        rejects("global_out_degree has", |s| s.global_out_degree.push(0));
        rejects("global_in_degree has", |s| s.global_in_degree.push(0));
        rejects("global_degree has", |s| {
            s.global_degree.pop();
        });
    }

    #[test]
    fn the_csr_must_be_a_walk_over_local_targets() {
        rejects("out_offsets has", |s| s.out_offsets.push(0));
        rejects("monotone walk", |s| s.out_offsets[0] = 1);
        rejects("monotone walk", |s| *s.out_offsets.last_mut().unwrap() += 1);
        rejects("monotone walk", |s| {
            let row = (1..s.out_offsets.len())
                .find(|&i| s.out_offsets[i] > 0)
                .unwrap();
            s.out_offsets[row - 1] = s.out_offsets[row] + 1;
        });
        rejects("edge arrays disagree", |s| s.out_weights.push(1.0));
        rejects("edge arrays disagree", |s| {
            s.out_parallel.pop();
        });
        rejects("edge target", |s| s.out_targets[0] = s.globals.len() as u32);
    }

    #[test]
    fn globals_and_the_route_table_must_be_one_bijection() {
        rejects("does not send", |s| {
            s.globals[0] = VertexId(s.route.len() as u32)
        });
        rejects("does not send", |s| s.globals[0] = s.globals[1]);
        rejects("does not send", |s| {
            s.route[s.globals[0].index()] = NO_LOCAL
        });
        rejects("route table has", |s| {
            let absent = s.route.iter().position(|&l| l == NO_LOCAL).unwrap();
            s.route[absent] = 0;
        });
    }

    #[test]
    fn replica_metadata_must_agree_with_itself() {
        // Local 0 of this shard (machine 1 of 3) is replicated everywhere:
        // its mirror list is the first two entries of the flat array.
        let first_list = |s: &mut LocalShard, list: [MachineId; 2]| {
            assert_eq!(s.mirrors(0), [MachineId(0), MachineId(2)]);
            s.mirror_machines[..2].copy_from_slice(&list);
        };
        rejects("not sorted other machines", |s| {
            first_list(s, [MachineId(0), s.machine])
        });
        rejects("not sorted other machines", |s| {
            first_list(s, [MachineId(2), MachineId(0)])
        });
        rejects("not sorted other machines", |s| {
            first_list(s, [MachineId(0), MachineId(0)])
        });

        rejects("is_master disagrees", |s| s.is_master[0] = !s.is_master[0]);
        rejects("replicated is not", |s| {
            s.replicated.pop();
        });
        rejects("replicated is not", |s| {
            let lone = (0..s.globals.len())
                .find(|&l| !s.has_mirrors(l as u32))
                .unwrap();
            s.replicated.push(lone as u32);
            s.replicated.sort_unstable();
        });
    }

    /// The file holds one counted list per local, so it cannot express a
    /// broken walk; a shard damaged in memory can, and `validate` says so.
    #[test]
    fn the_flat_mirror_lists_must_be_a_walk_over_one_array() {
        let broken: [fn(&mut LocalShard); 3] = [
            |s| s.mirror_offsets[0] = 1,
            |s| s.mirror_machines.push(MachineId(0)),
            |s| {
                let l = s.replicated[0] as usize;
                s.mirror_offsets[l] = s.mirror_offsets[l + 1] + 1;
            },
        ];
        for damage in broken {
            let mut s = shard();
            damage(&mut s);
            assert!(matches!(
                s.validate(),
                Err(NetError::Malformed { detail, .. }) if detail.contains("mirror_offsets is not")
            ));
        }
    }

    #[test]
    fn a_count_the_file_cannot_back_is_truncation_not_a_reservation() {
        // `machine`, then a `globals` count of four billion, then nothing.
        let mut file = 1u16.to_wire();
        u32::MAX.encode(&mut file);
        assert!(matches!(
            LocalShard::from_wire(&file),
            Err(NetError::Truncated { needed, have: 0 }) if needed == 4 * u32::MAX as usize
        ));
    }
}
