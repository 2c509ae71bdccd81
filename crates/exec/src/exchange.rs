//! Exchange operators: gather, broadcast (`BC`), hash repartition (`RD`).

use std::sync::Arc;

use bfq_common::{ColumnId, Result};
use bfq_expr::Layout;
use bfq_storage::Chunk;

use crate::data::PartitionedData;
use crate::parallel::WorkerPool;
use crate::util::{hash_keys, slots_for, JOIN_SEED};

/// Merge all partitions into one.
pub fn gather(input: PartitionedData) -> PartitionedData {
    let all: Vec<Chunk> = input.partitions.into_iter().flatten().collect();
    PartitionedData {
        types: input.types,
        partitions: vec![all],
    }
}

/// Replicate every row to all `dop` workers (cheap: chunks share columns via
/// `Arc`, so a broadcast copies pointers, not data — like handing each
/// thread the same hash-table pages).
pub fn broadcast(input: PartitionedData, dop: usize) -> PartitionedData {
    let all: Vec<Chunk> = input.partitions.into_iter().flatten().collect();
    PartitionedData {
        types: input.types,
        partitions: vec![all; dop],
    }
}

/// Split one chunk into the per-target `buckets` of a `dop`-way hash
/// repartition on the key `slots` (join-seeded key hash modulo `dop`).
fn route_chunk(chunk: &Chunk, slots: &[usize], buckets: &mut [Vec<Chunk>]) {
    let dop = buckets.len();
    let hashes = hash_keys(chunk, slots, JOIN_SEED);
    let mut sels: Vec<Vec<u32>> = vec![Vec::new(); dop];
    for (i, h) in hashes.iter().enumerate() {
        sels[(h % dop as u64) as usize].push(i as u32);
    }
    for (b, sel) in sels.iter().enumerate() {
        if !sel.is_empty() {
            buckets[b].push(chunk.take(sel));
        }
    }
}

/// Merge per-source bucket sets by target, in source order.
fn merge_buckets(bucketed: Vec<Vec<Vec<Chunk>>>, dop: usize) -> Vec<Vec<Chunk>> {
    let mut partitions: Vec<Vec<Chunk>> = vec![Vec::new(); dop];
    for mut per_source in bucketed {
        for (b, chunks) in per_source.iter_mut().enumerate() {
            partitions[b].append(chunks);
        }
    }
    partitions
}

/// Hash-repartition on `cols` so equal keys land on the same worker.
pub fn repartition(
    pool: &WorkerPool,
    input: PartitionedData,
    layout: &Layout,
    cols: &[ColumnId],
    dop: usize,
) -> Result<PartitionedData> {
    let slots = slots_for(layout, cols)?;
    let PartitionedData { types, partitions } = input;
    let sources = Arc::new(partitions);
    // Split every input partition into per-target buckets in parallel…
    let bucketed: Vec<Vec<Vec<Chunk>>> = pool.run(sources.len(), move |p| {
        let mut buckets: Vec<Vec<Chunk>> = vec![Vec::new(); dop];
        for chunk in &sources[p] {
            route_chunk(chunk, &slots, &mut buckets);
        }
        Ok(buckets)
    })?;
    // …then merge the buckets by target.
    Ok(PartitionedData {
        types,
        partitions: merge_buckets(bucketed, dop),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfq_common::{DataType, TableId};
    use bfq_storage::Column;
    use std::sync::Arc;

    fn data(parts: Vec<Vec<i64>>) -> PartitionedData {
        PartitionedData {
            types: vec![DataType::Int64],
            partitions: parts
                .into_iter()
                .map(|vals| {
                    if vals.is_empty() {
                        vec![]
                    } else {
                        vec![Chunk::new(vec![Arc::new(Column::Int64(vals, None))]).unwrap()]
                    }
                })
                .collect(),
        }
    }

    fn layout() -> Layout {
        Layout::new(vec![ColumnId::new(TableId(0), 0)])
    }

    #[test]
    fn gather_merges_everything() {
        let out = gather(data(vec![vec![1, 2], vec![3], vec![]]));
        assert_eq!(out.num_partitions(), 1);
        assert_eq!(out.total_rows(), 3);
    }

    #[test]
    fn broadcast_replicates() {
        let out = broadcast(data(vec![vec![1, 2], vec![3]]), 4);
        assert_eq!(out.num_partitions(), 4);
        for p in 0..4 {
            let c = out.partition_chunk(p).unwrap();
            assert_eq!(c.rows(), 3);
        }
    }

    #[test]
    fn repartition_colocates_equal_keys() {
        let input = data(vec![vec![1, 2, 3, 1, 2, 3], vec![1, 2, 3]]);
        let pool = WorkerPool::lazy();
        let out = repartition(&pool, input, &layout(), &[ColumnId::new(TableId(0), 0)], 3).unwrap();
        assert_eq!(out.total_rows(), 9);
        // Each key value must appear in exactly one partition.
        for key in 1..=3i64 {
            let mut seen_in = Vec::new();
            for p in 0..3 {
                let chunk = out.partition_chunk(p).unwrap();
                let vals = chunk.column(0).as_i64().unwrap();
                if vals.contains(&key) {
                    seen_in.push(p);
                }
            }
            assert_eq!(seen_in.len(), 1, "key {key} split across partitions");
        }
    }

    #[test]
    fn repartition_preserves_all_rows() {
        let vals: Vec<i64> = (0..1000).collect();
        let input = data(vec![vals.clone()]);
        let pool = WorkerPool::lazy();
        let out = repartition(&pool, input, &layout(), &[ColumnId::new(TableId(0), 0)], 7).unwrap();
        assert_eq!(out.total_rows(), 1000);
        let mut collected: Vec<i64> = (0..7)
            .flat_map(|p| {
                out.partition_chunk(p)
                    .unwrap()
                    .column(0)
                    .as_i64()
                    .unwrap()
                    .to_vec()
            })
            .collect();
        collected.sort();
        assert_eq!(collected, vals);
    }
}
