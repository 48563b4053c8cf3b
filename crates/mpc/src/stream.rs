//! Executor-driven ingestion of binary `WCCS` chunk streams.
//!
//! The binary chunk format (`wcc_graph::io`, magic `WCCS`) frames a batch
//! schedule as independently decodable payloads precisely so that a cluster
//! can decode them in parallel: the sequential part of ingestion is only the
//! framing scan ([`wcc_graph::io::read_op_chunk_frames`]), after which each
//! payload is a pure function of its bytes and the stream's format version.
//! This module fans that decode out through an [`Executor`] — one work unit
//! per chunk, results reassembled in chunk order, the first malformed chunk
//! (in *chunk index* order, never in completion order) reported as the
//! error. Both properties follow from [`Executor::map_items`]'s index-ordered
//! fan-in, so the decode obeys the workspace determinism contract:
//! bit-identical output and error selection for every thread count.

use crate::executor::Executor;

use wcc_graph::io::{decode_op_chunk, read_op_chunk_frames, EdgeOp, IoError};

/// Decodes framed chunk payloads into op batches in parallel, one work unit
/// per chunk, via `exec`. Output order matches frame order; on failure the
/// error for the lowest-indexed malformed chunk is returned regardless of
/// the thread count. `version` is the stream's format version as returned
/// by [`wcc_graph::io::read_op_chunk_frames`]; version-1 payloads decode to
/// all-insert ops.
///
/// # Errors
///
/// Returns the first (by chunk index) [`IoError`] produced by
/// [`decode_op_chunk`].
pub fn decode_op_chunks(
    version: u32,
    frames: &[Vec<u8>],
    exec: &Executor,
) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    exec.map_items(frames, |i, frame| decode_op_chunk(version, i, frame))
        .into_iter()
        .collect()
}

/// Reads a whole chunk stream (format version 1 or 2) with parallel
/// per-chunk decode: sequential framing, then [`decode_op_chunks`] through
/// `exec`.
///
/// # Errors
///
/// See [`wcc_graph::io::read_op_chunk_frames`] and [`decode_op_chunks`].
pub fn read_op_chunks_parallel<R: std::io::Read>(
    reader: R,
    exec: &Executor,
) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    let (version, frames) = read_op_chunk_frames(reader)?;
    decode_op_chunks(version, &frames, exec)
}

/// File-path convenience wrapper around [`read_op_chunks_parallel`].
///
/// # Errors
///
/// See [`read_op_chunks_parallel`].
pub fn read_op_chunks_file_parallel(
    path: &std::path::Path,
    exec: &Executor,
) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    read_op_chunks_parallel(
        std::io::BufReader::new(std::fs::File::open(path).map_err(IoError::Io)?),
        exec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_graph::io::{ChunkWriter, CHUNK_FORMAT_VERSION, CHUNK_FORMAT_VERSION_V2};

    const VERSIONS: [u32; 2] = [CHUNK_FORMAT_VERSION, CHUNK_FORMAT_VERSION_V2];

    /// Twenty op batches of ragged sizes (some empty). Version 2 deletes
    /// every third record; version 1 draws insertions only.
    fn sample_chunks(version: u32) -> Vec<Vec<EdgeOp>> {
        (0..20u64)
            .map(|c| {
                (0..(c % 5) * 30)
                    .map(|i| {
                        if version == CHUNK_FORMAT_VERSION_V2 && i % 3 == 0 {
                            EdgeOp::delete(c, i)
                        } else {
                            EdgeOp::insert(c * 1000 + i, i)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn encode(version: u32, chunks: &[Vec<EdgeOp>]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = ChunkWriter::new(&mut buf, version).unwrap();
        for chunk in chunks {
            writer.write_chunk(chunk).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn parallel_decode_matches_sequential_for_every_thread_count() {
        for version in VERSIONS {
            let chunks = sample_chunks(version);
            let buf = encode(version, &chunks);
            let sequential = wcc_graph::io::read_op_chunks(std::io::Cursor::new(&buf)).unwrap();
            assert_eq!(sequential, chunks);
            for threads in [1usize, 2, 8] {
                let exec = Executor::threaded(threads);
                let parallel = read_op_chunks_parallel(std::io::Cursor::new(&buf), &exec).unwrap();
                assert_eq!(parallel, sequential, "v{version}, threads={threads}");
            }
        }
    }

    #[test]
    fn decode_error_selection_is_deterministic_across_thread_counts() {
        for version in VERSIONS {
            let chunks: Vec<Vec<EdgeOp>> = (0..12u64)
                .map(|c| (0..5).map(|i| EdgeOp::insert(c, i)).collect())
                .collect();
            let (_, mut frames) =
                read_op_chunk_frames(std::io::Cursor::new(encode(version, &chunks))).unwrap();
            // Frames 4 and 9 are malformed; the error must always name
            // chunk 4. A version-1 frame loses its last byte, a version-2
            // frame gets a bad op tag.
            for bad in [4, 9] {
                if version == CHUNK_FORMAT_VERSION_V2 {
                    frames[bad][0] = 0xFF;
                } else {
                    frames[bad].pop();
                }
            }
            for threads in [1usize, 2, 8] {
                let exec = Executor::threaded(threads);
                let err = decode_op_chunks(version, &frames, &exec).unwrap_err();
                assert!(
                    matches!(err, IoError::Corrupt { chunk: 4, .. }),
                    "v{version}, threads={threads}: got {err}"
                );
            }
        }
    }

    #[test]
    fn empty_frame_list_decodes_to_nothing() {
        let exec = Executor::threaded(4);
        for version in VERSIONS {
            assert!(decode_op_chunks(version, &[], &exec).unwrap().is_empty());
        }
    }
}
