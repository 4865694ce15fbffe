//! Corruption corpus for the `HOPIDX04` image. `FlatIndex` serves the
//! file's bytes in place with unchecked reads, so its loader must be
//! total: every truncation and every single-bit flip of a valid image
//! is a clean `Err` (the CRC-32 trailer sees to random damage), and so
//! is every image of a hand-crafted corpus whose CRC is *valid* but
//! whose structure breaks one rule of the validator. `DiskIndex::open`
//! reads only the prefix and directories — no checksum — so its half of
//! the contract is "never a panic": what it opens answers or errors.

mod labelkit;

use hop_doubling::extmem::device::TempStore;
use hop_doubling::extmem::wire::crc32;
use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, rank, HopDbConfig};
use hop_doubling::hoplabels::disk::DiskIndex;
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::hoplabels::shard_image;
use hop_doubling::sfgraph::VertexId;

/// Serialized image of a small GLP-built index (70 vertices, so labels
/// have both hub bits and varint tails, and leaves and vertices with two
/// neighbours, so the image has one- and two-pair records and every
/// sweep below runs over them too).
fn serialized_image(directed: bool) -> Vec<u8> {
    let und = glp(&GlpParams::with_density(70, 3.0, if directed { 31 } else { 30 }));
    let g = if directed { orient_scale_free(&und, 0.25, 31) } else { und };
    let (_, relabeled) = rank(&g, &HopDbConfig::default());
    let (index, stats) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let pairs = |len| {
        let sides = index.sides();
        let slots = sides.iter().flat_map(|side| side.iter());
        slots.filter(|l| l.record().is_some_and(|r| r.pairs().len() == len)).count()
    };
    assert!(stats.derived_leaves > 0, "the corpus graphs must have leaves");
    assert!(pairs(1) > 0 && pairs(2) > 0, "and records of one and of two pairs");
    let image = labelkit::image(&index);
    assert_eq!(image[10], 1, "the records bit of the flags word");
    image
}

/// The fixed header: magic (8) + flags (5) + vertex count (8).
const FIXED_HEADER: usize = 21;

#[test]
fn every_truncation_is_a_clean_error() {
    for directed in [false, true] {
        let image = serialized_image(directed);
        assert!(FlatIndex::from_hopidx_bytes(&image).is_ok(), "pristine image must load");
        for cut in 0..image.len() {
            let r = FlatIndex::from_hopidx_bytes(&image[..cut]);
            assert!(r.is_err(), "directed={directed}: truncation to {cut} bytes parsed");
        }
    }
}

#[test]
fn trailing_garbage_is_a_clean_error() {
    for directed in [false, true] {
        let mut image = serialized_image(directed);
        for extra in [1usize, 7, 4096] {
            image.extend(std::iter::repeat_n(0xA5u8, extra));
            assert!(
                FlatIndex::from_hopidx_bytes(&image).is_err(),
                "directed={directed}: {extra} trailing bytes accepted"
            );
            image.truncate(image.len() - extra);
        }
    }
}

#[test]
fn every_fixed_header_bit_flip_is_a_clean_error() {
    // Magic, flags word (directed, hub-distance bits, records, tail
    // shift, directory block), and the vertex count: every single-bit
    // flip must be rejected.
    for directed in [false, true] {
        let image = serialized_image(directed);
        for byte in 0..FIXED_HEADER {
            for bit in 0..8 {
                let mut mutated = image.clone();
                mutated[byte] ^= 1 << bit;
                let r = FlatIndex::from_hopidx_bytes(&mutated);
                assert!(
                    r.is_err(),
                    "directed={directed}: flip of bit {bit} in header byte {byte} parsed"
                );
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_clean_error() {
    // The whole image, trailer included: a CRC-32 detects every
    // single-bit error, so nothing corrupt ever reaches a query. The
    // shard cutter reads through the same validator.
    for directed in [false, true] {
        let mut image = serialized_image(directed);
        for byte in 0..image.len() {
            for bit in 0..8 {
                image[byte] ^= 1 << bit;
                assert!(
                    FlatIndex::from_hopidx_bytes(&image).is_err(),
                    "directed={directed}: flip of bit {bit} in byte {byte} loaded"
                );
                if bit == byte % 8 {
                    assert!(shard_image(&image, 2).is_err(), "byte {byte} sharded");
                }
                image[byte] ^= 1 << bit;
            }
        }
        assert!(FlatIndex::from_hopidx_bytes(&image).is_ok(), "flips were undone");
    }
}

/// A `HOPIDX04` image assembled from parts and sealed with a *valid*
/// CRC, so only the structural rules stand between it and a query.
/// `flags` is the flags word: directed, hub-distance bits, records, tail
/// shift and directory block (each width byte a [`parity_byte`]); `dirs`
/// is the directories' bytes.
fn craft(flags: [u8; 5], n: u64, dirs: &[u8], labels: &[u8]) -> Vec<u8> {
    let mut image = b"HOPIDX04".to_vec();
    image.extend_from_slice(&flags);
    image.extend_from_slice(&n.to_le_bytes());
    image.extend_from_slice(dirs);
    image.extend_from_slice(labels);
    let crc = crc32(&image);
    image.extend_from_slice(&crc.to_le_bytes());
    image
}

/// A flags byte: `v` in bits 0–5, their parity in bit 7.
fn parity_byte(v: u8) -> u8 {
    v | ((v.count_ones() as u8 & 1) << 7)
}

/// The flags word of an undirected image with `hub`-bit hub distances,
/// the records flag `records`, tail shift `shift` and blocks of 64.
fn flags_of(hub: u8, records: u8, shift: u8) -> [u8; 5] {
    [0, parity_byte(hub), records, parity_byte(shift), parity_byte(6)]
}

/// [`flags_of`] 4-bit hub distances and no records.
fn flags(shift: u8) -> [u8; 5] {
    flags_of(4, 0, shift)
}

/// Directories of the label offsets `sides` (each `n + 1` entries from
/// 0) in blocks of `1 << block` vertices: per block a `u32` base, then a
/// `u16` offset from it per vertex.
fn dirs(block: u32, sides: &[&[u32]]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for offsets in sides {
        for chunk in offsets.chunks(1 << block) {
            bytes.extend_from_slice(&chunk[0].to_le_bytes());
            for &at in chunk {
                bytes.extend_from_slice(&((at - chunk[0]) as u16).to_le_bytes());
            }
        }
    }
    bytes
}

/// An undirected image of `n` vertices, 4-bit hub distances and tail
/// shift `shift`, where the last vertex, `n − 1`, carries `label` and
/// every other label is empty.
fn one_label_at(shift: u8, n: u32, label: &[u8]) -> Vec<u8> {
    let mut dir = vec![0; n as usize + 1];
    dir[n as usize] = label.len() as u32;
    craft(flags(shift), n as u64, &dirs(6, &[&dir]), label)
}

/// [`one_label_at`] tail shift 2.
fn one_label(n: u32, label: &[u8]) -> Vec<u8> {
    one_label_at(2, n, label)
}

/// A label: hub word, then raw bytes.
fn label(hubs: u64, rest: &[u8]) -> Vec<u8> {
    [&hubs.to_le_bytes()[..], rest].concat()
}

/// LEB128 of `v`.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

#[test]
fn a_valid_crc_does_not_excuse_a_broken_structure() {
    // The crafting itself is sound: at vertex 99, hubs 0 and 5 at
    // distances 2 and 3 (stored `d − 1`, one byte, low nibble first),
    // then at shift 2 tail pivot 64 at distance 4 (gap 0: word 3) and 70
    // at 2 (gap 5: word 21).
    let good = label(0b10_0001, &[0x21, 3, 21]);
    let flat = FlatIndex::from_hopidx_bytes(&one_label(100, &good)).expect("baseline loads");
    // Four stored entries and the implied self entry; 99 empty labels
    // of one implied entry each.
    assert_eq!((flat.out_label_len(99), flat.total_entries()), (5, 99 + 5));
    assert_eq!(shard_image(&one_label(100, &good), 2).expect("baseline shards").len(), 2);
    // At shift 32, a gap of 34 reaches pivot 98, below vertex 99, and 35
    // reaches the vertex itself.
    let at_32 = |gap: u64| one_label_at(32, 100, &label(0, &varint((gap << 32) | 7)));
    let flat = FlatIndex::from_hopidx_bytes(&at_32(34)).expect("shift 32 loads");
    assert_eq!((flat.out_label_len(99), flat.query(98, 99)), (2, 8));
    // Blocks of two vertices, three of them: the last label, hub 0 at
    // distance 2, is 9 bytes.
    let small = label(1, &[0x01]);
    let block_1 =
        |d: &[u8]| craft([0, parity_byte(4), 0, parity_byte(2), parity_byte(1)], 3, d, &small);
    let flat =
        FlatIndex::from_hopidx_bytes(&block_1(&dirs(1, &[&[0, 0, 0, 9]]))).expect("blocks of 2");
    assert_eq!((flat.out_label_len(2), flat.query(0, 2)), (2, 2));
    // At 3 bits a hub distance leaves 5 pad bits.
    let three_bits = |label: &[u8]| craft(flags_of(3, 0, 2), 3, &dirs(6, &[&[0, 0, 0, 9]]), label);
    let flat = FlatIndex::from_hopidx_bytes(&three_bits(&label(1, &[0b010]))).expect("3 bits");
    assert_eq!(flat.query(2, 0), 3);

    let nine_ff = [0xFF; 9];
    let dir_3 = |offsets: &[u32]| dirs(6, &[offsets]);
    let raw_blocks = |blocks: &[(u32, &[u16])]| -> Vec<u8> {
        let mut bytes = Vec::new();
        for (base, offsets) in blocks {
            bytes.extend_from_slice(&base.to_le_bytes());
            offsets.iter().for_each(|o| bytes.extend_from_slice(&o.to_le_bytes()));
        }
        bytes
    };
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        ("a u16 offset that decreases", craft(flags(2), 3, &dir_3(&[0, 11, 8, 11]), &good)),
        ("first offset not zero", craft(flags(2), 3, &dir_3(&[2, 11, 11, 11]), &good)),
        ("offsets past the region", craft(flags(2), 3, &dir_3(&[0, 11, 11, 16]), &good)),
        (
            "bytes no directory accounts for",
            craft(flags(2), 3, &dir_3(&[0, 0, 0, 11]), &[&good[..], &[0]].concat()),
        ),
        (
            "in directory past the region",
            craft(
                [1, parity_byte(4), 0, parity_byte(2), parity_byte(6)],
                1,
                &dirs(6, &[&[0, 11], &[0, 1]]),
                &good,
            ),
        ),
        ("a u16 offset past its block's span", block_1(&raw_blocks(&[(0, &[0, 5]), (0, &[0, 9])]))),
        ("a block's first offset not zero", block_1(&raw_blocks(&[(0, &[0, 0]), (0, &[3, 9])]))),
        ("label shorter than its hub word", one_label(100, &good[..7])),
        ("popcount x 4 bits past the label", one_label(100, &label(0b111, &[0x21]))),
        (
            "popcount x 32 bits past the label",
            craft(flags_of(32, 0, 0), 2, &dirs(6, &[&[0, 0, 11]]), &label(1, &[1, 2, 3])),
        ),
        ("non-zero pad nibble", one_label(100, &label(0b1, &[0x11]))),
        ("non-zero pad nibble, three hubs", one_label(100, &label(0b111, &[0x21, 0x13]))),
        ("non-zero pad bit at 3 bits", three_bits(&label(1, &[0b0100_0010]))),
        (
            "non-zero pad bit at 7 bits, two hubs",
            craft(
                flags_of(7, 0, 2),
                3,
                &dirs(6, &[&[0, 0, 0, 10]]),
                &label(0b11, &[1, 0b1100_0000]),
            ),
        ),
        ("hub bit >= v", one_label(10, &label(1 << 10, &[1]))),
        ("hub bit == v", one_label(10, &label(1 << 9, &[1]))),
        ("hub bit >= v, n = 63", one_label(63, &label(1 << 63, &[1]))),
        ("11-byte varint", one_label(100, &label(0, &[&[0x80; 10][..], &[0]].concat()))),
        (
            "10-byte varint past 64 bits",
            one_label(100, &label(0, &[&nine_ff[..], &[0x02]].concat())),
        ),
        ("label ends inside a varint", one_label(100, &label(0, &[0x80]))),
        ("label ends inside the second entry", one_label(100, &label(0, &[3, 0x80]))),
        (
            "tail pivot wraps below 64 in 32 bits",
            one_label(100, &label(0, &varint((((1 << 32) - 64) << 2) | 1))),
        ),
        (
            "tail pivot wraps onto the previous",
            one_label(
                100,
                &label(0, &[varint(1), varint((u64::from(u32::MAX) << 2) | 1)].concat()),
            ),
        ),
        (
            "tail gap 2^64 - 1 at shift 0",
            one_label_at(0, 100, &label(0, &[&nine_ff[..], &[0x01]].concat())),
        ),
        ("tail gap at shift 32 reaching v", at_32(35)),
        (
            "tail pivot == v",
            one_label(100, &label(0, &[varint((34 << 2) | 1), varint(1)].concat())),
        ),
        ("tail pivot >= v, n < 64", one_label(10, &label(1, &[1, 1]))),
        (
            "hub distance past 32 bits",
            craft(flags_of(32, 0, 0), 2, &dirs(6, &[&[0, 0, 12]]), &label(1, &[0xFF; 4])),
        ),
        ("tail distance past 32 bits", one_label_at(32, 100, &label(0, &varint(u32::MAX.into())))),
        ("hub width 33", craft(flags_of(33, 0, 0), 1, &dirs(6, &[&[0, 0]]), &[])),
        ("hub width 64", craft([0, 64, 0, 0, parity_byte(6)], 1, &dirs(6, &[&[0, 0]]), &[])),
        (
            "hub width 1 without its parity bit",
            craft([0, 1, 0, 0, parity_byte(6)], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        (
            "hub width 3 with a parity bit",
            craft([0, 0x83, 0, 0, parity_byte(6)], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        ("tail shift 33", craft(flags(33), 1, &dirs(6, &[&[0, 0]]), &[])),
        (
            "tail shift 2 without its parity bit",
            craft([0, parity_byte(4), 0, 2, parity_byte(6)], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        (
            "tail shift 3 with a parity bit",
            craft([0, parity_byte(4), 0, 0x83, parity_byte(6)], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        (
            "tail shift byte bit 6",
            craft(
                [0, parity_byte(4), 0, 0x40 | 0x03, parity_byte(6)],
                1,
                &dirs(6, &[&[0, 0]]),
                &[],
            ),
        ),
        (
            "block shift 7",
            craft([0, parity_byte(4), 0, 0, parity_byte(7)], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        (
            "block shift 4 without its parity bit",
            craft([0, parity_byte(4), 0, 0, 4], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        (
            "block shift 3 with a parity bit",
            craft([0, parity_byte(4), 0, 0, 0x83], 1, &dirs(6, &[&[0, 0]]), &[]),
        ),
        (
            "directed flag 2",
            craft([2, parity_byte(4), 0, 0, parity_byte(6)], 1, &dirs(6, &[&[0, 0], &[0, 0]]), &[]),
        ),
        ("vertex count past the id space", craft(flags(0), 1 << 32, &dirs(6, &[&[0, 0]]), &[])),
        ("trailing byte after the trailer", [&one_label(100, &good)[..], &[0]].concat()),
    ];
    for (what, image) in &corpus {
        assert!(FlatIndex::from_hopidx_bytes(image).is_err(), "{what}: loaded");
        assert!(shard_image(image, 2).is_err(), "{what}: sharded");
    }
}

/// An undirected image of three vertices, 2-bit hub distances, whose
/// slots are `slots`, with the records flag `records`.
fn three_slots(records: u8, slots: [&[u8]; 3]) -> Vec<u8> {
    let ends: Vec<u32> = slots
        .iter()
        .scan(0, |at, s| {
            *at += s.len() as u32;
            Some(*at)
        })
        .collect();
    let dir = dirs(6, &[&[0, ends[0], ends[1], ends[2]]]);
    craft(flags_of(2, records, 0), 3, &dir, &slots.concat())
}

#[test]
fn a_record_is_two_varints_naming_another_vertexs_label() {
    // Vertex 0 carries only its implied self entry (an empty label), 2
    // an entry to 0 at distance 3 (stored 2); 1 is the record (parent 0,
    // offset 5).
    let (hub0, to0) = (Vec::new(), label(1, &[2]));
    let good = three_slots(1, [&hub0, &[0, 5], &to0]);
    let flat = FlatIndex::from_hopidx_bytes(&good).expect("baseline loads");
    assert_eq!((flat.query(1, 0), flat.query(1, 2), flat.total_entries()), (5, 8, 3));
    assert!(shard_image(&good, 2).is_ok());
    // And with a second pair, 2 at offset 1.
    let good = three_slots(1, [&hub0, &[0, 5, 2, 1], &to0]);
    let flat = FlatIndex::from_hopidx_bytes(&good).expect("two pairs load");
    assert_eq!((flat.query(1, 0), flat.query(1, 2), flat.query(2, 1)), (4, 1, 1));
    assert!(shard_image(&good, 2).is_ok());

    let int_max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]; // varint(u32::MAX)
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        ("short label, records flag unset", three_slots(0, [&hub0, &[0, 5], &to0])),
        ("parent >= n", three_slots(1, [&hub0, &[3, 5], &to0])),
        ("parent == v", three_slots(1, [&hub0, &[1, 5], &to0])),
        ("parent holds a record", three_slots(1, [&hub0, &[2, 5], &[0, 3]])),
        ("varint cut at the label's end", three_slots(1, [&hub0, &[0, 0x85], &to0])),
        ("parent varint cut at the label's end", three_slots(1, [&hub0, &[0x80], &to0])),
        ("offset INF_DIST", three_slots(1, [&hub0, &[&[0][..], &int_max].concat(), &to0])),
        // Record varints are at most 5 bytes and 32 bits, though a tail
        // varint may take 10.
        ("parent past 32 bits", three_slots(1, [&hub0, &[0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 5], &to0])),
        ("offset past 32 bits", three_slots(1, [&hub0, &[0, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F], &to0])),
        (
            "6-byte parent varint",
            three_slots(1, [&hub0, &[0x80, 0x80, 0x80, 0x80, 0x80, 0, 5], &to0]),
        ),
        (
            "6-byte offset varint",
            three_slots(1, [&hub0, &[0, 0x85, 0x80, 0x80, 0x80, 0x80, 0], &to0]),
        ),
        ("bytes after the record", three_slots(1, [&hub0, &[0, 5, 0], &to0])),
        ("records flag without a record", three_slots(1, [&hub0, &hub0, &to0])),
        ("records flag 2", three_slots(2, [&hub0, &[0, 5], &to0])),
        // The second pair of a two-pair record.
        ("second pair cut before its offset", three_slots(1, [&hub0, &[0, 5, 2], &to0])),
        ("second offset cut", three_slots(1, [&hub0, &[0, 5, 2, 0x81], &to0])),
        ("equal parents", three_slots(1, [&hub0, &[0, 5, 0, 6], &to0])),
        ("descending parents", three_slots(1, [&hub0, &[2, 5, 0, 6], &to0])),
        ("second parent == v", three_slots(1, [&hub0, &[0, 5, 1, 6], &to0])),
        ("second parent >= n", three_slots(1, [&hub0, &[0, 5, 3, 6], &to0])),
        ("second parent holds a record", three_slots(1, [&hub0, &[0, 5, 2, 6], &[0, 3]])),
        ("a third pair", three_slots(1, [&hub0, &[0, 5, 2, 6, 2, 6], &to0])),
        // varint(INF_DIST) is 5 bytes, so a second pair offset at it
        // makes an 8-byte slot: no record, and no label either.
        (
            "second offset INF_DIST",
            three_slots(1, [&hub0, &[&[0, 5, 2][..], &int_max].concat(), &to0]),
        ),
    ];
    let store = TempStore::new().expect("temp store");
    for (what, image) in &corpus {
        let err = FlatIndex::from_hopidx_bytes(image).expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(shard_image(image, 2).is_err(), "{what}: sharded");
        // The disk reader validates a slot when a query reads it: a
        // query through the broken one is the same error.
        if let Ok(mut disk) = DiskIndex::open(counted_copy(&store, image)) {
            if !what.starts_with("records flag") {
                let err = disk.query(1, 0).expect_err(what);
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            }
        }
    }
}

fn counted_copy(store: &TempStore, image: &[u8]) -> hop_doubling::extmem::device::CountedFile {
    let mut f = store.create("mut").expect("create");
    std::io::Write::write_all(&mut f, image).expect("write");
    std::io::Write::flush(&mut f).expect("flush");
    f
}

#[test]
fn disk_open_rejects_the_same_fixed_header_corpus() {
    // DiskIndex::open goes through the same prefix and directory
    // checks; the sweep keeps both loaders honest about them. It reads
    // no CRC, so the hub width (a power of two) and the tail shift
    // (under its parity bit) must refuse a flip on their own.
    let store = TempStore::new().expect("temp store");
    for directed in [false, true] {
        let image = serialized_image(directed);
        for byte in 0..FIXED_HEADER {
            let mut mutated = image.clone();
            mutated[byte] ^= 1 << (byte % 8);
            assert!(
                DiskIndex::open(counted_copy(&store, &mutated)).is_err(),
                "directed={directed}: header byte {byte} flip opened"
            );
        }
    }
}

#[test]
fn disk_queries_over_a_flipped_body_answer_or_error_but_never_panic() {
    // Past the fixed header `open` may accept a flipped file — it does
    // not read the labels, so it cannot checksum them — but every label
    // a query reads goes through the checked decoder.
    let store = TempStore::new().expect("temp store");
    for directed in [false, true] {
        let image = serialized_image(directed);
        for byte in FIXED_HEADER..image.len() {
            let mut mutated = image.clone();
            mutated[byte] ^= 1 << (byte % 8);
            if let Ok(mut disk) = DiskIndex::open(counted_copy(&store, &mutated)) {
                let n = disk.num_vertices() as VertexId;
                for s in (0..n).step_by(7) {
                    for t in (0..n).step_by(5) {
                        let _ = disk.query(s, t);
                    }
                }
            }
        }
    }
}
