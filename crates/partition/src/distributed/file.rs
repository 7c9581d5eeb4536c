//! A shard streamed into its file as it is placed (DESIGN.md §10): the
//! file sink of the placement walk.
//!
//! [`ShardSize`] counts every array before the walk starts, so
//! [`Section::bytes`] puts each section at a known offset. The walk then
//! appends to every section of every file at once, and each section gathers
//! its bytes in a small buffer of its own that goes to the file in one
//! positioned write when it fills. The route table is the one array kept
//! whole until the end: edge targets are translated through it. The file
//! that results is the shard's `to_wire()`, byte for byte.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use lazygraph_graph::{MachineId, VertexId};
use lazygraph_net::Wire;

use super::codec::{Section, HEADER_BYTES, SECTIONS};
use super::{Degrees, ShardSink, ShardSize, NO_LOCAL};
use crate::replication::{machines_of, MachineMask};

/// Bytes a section gathers before it writes them out.
const SECTION_BUF: usize = 8 << 10;

/// The part of one section not yet in the file: `buf` belongs at byte
/// `at`, and the section ends at byte `end`.
struct Cursor {
    at: u64,
    end: u64,
    buf: Vec<u8>,
}

impl Cursor {
    fn flush(&mut self, mut file: &File) -> io::Result<()> {
        file.seek(SeekFrom::Start(self.at))?;
        file.write_all(&self.buf)?;
        self.at += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
}

/// One shard file being written by the placement walk.
pub(super) struct ShardFile {
    file: File,
    machine: MachineId,
    route: Box<[u32]>,
    locals: u32,
    edges: u32,
    /// Indexed by `Section as usize`.
    cursors: [Cursor; SECTIONS.len()],
}

impl ShardFile {
    /// Creates the file of machine `machine`'s shard, whose arrays will
    /// have the lengths `size` counts, and writes its machine id.
    pub(super) fn create(
        path: &Path,
        machine: MachineId,
        size: ShardSize,
        num_global: usize,
    ) -> io::Result<ShardFile> {
        let mut file = File::create(path)?;
        file.write_all(&machine.0.to_wire())?;
        let mut at = HEADER_BYTES;
        let mut cursors = SECTIONS.map(|section| {
            let end = at + section.bytes(&size, num_global);
            let mut buf = Vec::with_capacity(SECTION_BUF);
            (section.count(&size, num_global) as u32).encode(&mut buf);
            let cursor = Cursor { at, end, buf };
            at = end;
            cursor
        });
        // Row 0 starts at edge 0.
        0u32.encode(&mut cursors[Section::OutOffsets as usize].buf);
        Ok(ShardFile {
            file,
            machine,
            route: vec![NO_LOCAL; num_global].into_boxed_slice(),
            locals: 0,
            edges: 0,
            cursors,
        })
    }

    /// Appends `item` to `section`, writing the section's buffer out once
    /// the next item might not fit.
    fn put(&mut self, section: Section, item: impl Wire) -> io::Result<()> {
        let cursor = &mut self.cursors[section as usize];
        item.encode(&mut cursor.buf);
        if cursor.buf.len() + 4 > SECTION_BUF {
            cursor.flush(&self.file)?;
        }
        Ok(())
    }

    /// Writes the route table and every buffered byte, checks that every
    /// section ended where the layout put its end, and returns the file's
    /// length.
    pub(super) fn finish(mut self) -> io::Result<u64> {
        let route = std::mem::take(&mut self.route);
        for &l in route.iter() {
            self.put(Section::Route, l)?;
        }
        for (section, cursor) in SECTIONS.iter().zip(&mut self.cursors) {
            cursor.flush(&self.file)?;
            if cursor.at != cursor.end {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {}: section {section:?} ends at byte {}, its layout at {}",
                        self.machine, cursor.at, cursor.end
                    ),
                ));
            }
        }
        Ok(self.cursors.last().map_or(HEADER_BYTES, |c| c.end))
    }
}

impl ShardSink for ShardFile {
    type Error = io::Error;

    fn push_vertex(
        &mut self,
        v: VertexId,
        master: MachineId,
        others: MachineMask,
        degrees: Degrees,
    ) -> io::Result<()> {
        let l = self.locals;
        self.locals += 1;
        self.route[v.index()] = l;
        self.put(Section::Globals, v.0)?;
        self.put(Section::IsMaster, master == self.machine)?;
        self.put(Section::MasterOf, master.0)?;
        self.put(Section::Mirrors, others.count_ones())?;
        for m in machines_of(others) {
            self.put(Section::Mirrors, m.0)?;
        }
        if others != 0 {
            self.put(Section::Replicated, l)?;
        }
        self.put(Section::GlobalOutDegree, degrees.out)?;
        self.put(Section::GlobalInDegree, degrees.inward)?;
        self.put(Section::GlobalDegree, degrees.total)
    }

    fn push_edge(&mut self, dst: VertexId, weight: f32, parallel: bool) -> io::Result<()> {
        self.edges += 1;
        self.put(Section::OutTargets, self.route[dst.index()])?;
        self.put(Section::OutWeights, weight)?;
        self.put(Section::OutParallel, parallel)
    }

    fn close_row(&mut self) -> io::Result<()> {
        self.put(Section::OutOffsets, self.edges)
    }
}
