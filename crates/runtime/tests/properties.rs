//! Property tests of the runtime's byte-level machinery: every codec
//! survives arbitrary values, slots reject every corruption that could
//! masquerade as a landed entry, and rings deliver arbitrary workloads
//! in order.

use hamband_core::counts::DepMap;
use hamband_core::demo::{Account, AccountUpdate};
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_runtime::codec::{
    append_head_len, append_to_slot, AppendCursor, AppendHeader, Entry, SummarySlot, CANARY_TRAILER,
};
use proptest::prelude::*;

fn arb_deps() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0..7usize, 0..4usize, 1..1_000_000u64), 0..6)
}

fn arb_update() -> impl Strategy<Value = AccountUpdate> {
    prop_oneof![
        (1..u64::MAX / 2).prop_map(Account::deposit),
        (1..u64::MAX / 2).prop_map(Account::withdraw),
    ]
}

/// One append-mode reader: adopted version, cursor, and every call it
/// applied.
#[derive(Default)]
struct AppendReader {
    version: u64,
    cursor: AppendCursor,
    calls: Vec<AccountUpdate>,
}

/// Poll `mem` the way the runtime does (header, then the bytes past
/// the cursor). Whatever the reader adopts must be exactly a published
/// image: the cursor that image ends at, and precisely the calls it
/// lacked.
fn poll_append(
    mem: &[u8],
    reader: &mut AppendReader,
    images: &[(Vec<u8>, AppendCursor)],
    calls: &[AccountUpdate],
) -> Result<(), TestCaseError> {
    let head = append_head_len(2);
    let Some(hdr) = AppendHeader::parse(mem, 2) else { return Ok(()) };
    let from = reader.cursor.len();
    if hdr.version <= reader.version || hdr.len < from || head + hdr.len > mem.len() {
        return Ok(());
    }
    let delta = &mem[head + from..head + hdr.len];
    if let Some((cursor, new)) = reader.cursor.advance::<AccountUpdate>(reader.version, &hdr, delta)
    {
        let v = hdr.version as usize;
        prop_assert!(v <= images.len(), "adopted unpublished version {}", v);
        prop_assert_eq!(cursor, images[v - 1].1);
        reader.calls.extend(new);
        prop_assert_eq!(&reader.calls[..], &calls[..v]);
        reader.version = hdr.version;
        reader.cursor = cursor;
    }
    Ok(())
}

/// Land `bytes` at `off` in two steps, cut after `cut` bytes, polling
/// after each: the reader may observe any prefix of a WRITE.
fn land_torn(
    mem: &mut [u8],
    off: usize,
    bytes: &[u8],
    cut: usize,
    reader: &mut AppendReader,
    images: &[(Vec<u8>, AppendCursor)],
    calls: &[AccountUpdate],
) -> Result<(), TestCaseError> {
    let cut = cut % (bytes.len() + 1);
    mem[off..off + cut].copy_from_slice(&bytes[..cut]);
    poll_append(mem, reader, images, calls)?;
    mem[off + cut..off + bytes.len()].copy_from_slice(&bytes[cut..]);
    poll_append(mem, reader, images, calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Append-mode slots under every landing order the runtime can
    /// produce: each publish is a full image or a records WRITE then a
    /// header WRITE, either WRITE may be observed half-landed, and an
    /// older full image (a recovery re-broadcast) may land in between.
    /// The reader rejects the slot or adopts exactly a published
    /// version, and it ends at the newest one.
    #[test]
    fn append_slot_reader_adopts_only_published_versions(
        calls in prop::collection::vec(arb_update(), 1..10),
        steps in prop::collection::vec((0..1_000usize, 0..1_000usize, 0..4usize, 0..100usize), 10),
    ) {
        let slot_size = 1024;
        let head = append_head_len(2);
        let mut images = Vec::new();
        let (mut image, mut cursor) = (Vec::new(), AppendCursor::default());
        let mut counts = vec![0u64; 2];
        for (i, call) in calls.iter().enumerate() {
            counts[usize::from(matches!(call, AccountUpdate::Withdraw(_)))] += 1;
            cursor = append_to_slot(&mut image, cursor, i as u64 + 1, &counts, call, slot_size);
            images.push((image.clone(), cursor));
        }
        let mut mem = vec![0u8; slot_size];
        let mut reader = AppendReader::default();
        let mut landed = 0usize;
        for (i, (image, cursor)) in images.iter().enumerate() {
            let (cut_a, cut_b, mode, older) = steps[i % steps.len()];
            if landed == 0 || mode == 0 {
                land_torn(&mut mem, 0, image, cut_a, &mut reader, &images, &calls)?;
            } else {
                let records = &image[head + landed..];
                land_torn(&mut mem, head + landed, records, cut_a, &mut reader, &images, &calls)?;
                land_torn(&mut mem, 0, &image[..head], cut_b, &mut reader, &images, &calls)?;
            }
            landed = cursor.len();
            if mode == 3 {
                let (old, _) = &images[older % (i + 1)];
                land_torn(&mut mem, 0, old, cut_b, &mut reader, &images, &calls)?;
            }
        }
        let (last, _) = images.last().expect("at least one call");
        land_torn(&mut mem, 0, last, usize::MAX, &mut reader, &images, &calls)?;
        prop_assert_eq!(reader.version, calls.len() as u64);
    }

    #[test]
    fn entry_payload_roundtrips(
        issuer in 0..7usize,
        seq in 0..u64::MAX / 2,
        update in arb_update(),
        deps in arb_deps(),
    ) {
        let entry = Entry {
            rid: Rid::new(Pid(issuer), seq),
            update,
            deps: DepMap::from_entries(
                deps.into_iter().map(|(p, m, c)| (Pid(p), MethodId(m), c)),
            ),
        };
        let bytes = entry.encode_payload();
        let back = Entry::<AccountUpdate>::decode_payload(&bytes).unwrap();
        prop_assert_eq!(back, entry);
    }

    #[test]
    fn entry_slot_roundtrips_and_rejects_other_seqs(
        seq in 1..u64::MAX / 2,
        update in arb_update(),
    ) {
        let entry = Entry { rid: Rid::new(Pid(1), 7), update, deps: DepMap::empty() };
        let slot = entry.to_slot(seq, 128);
        prop_assert_eq!(Entry::<AccountUpdate>::from_slot(&slot, seq).unwrap(), entry);
        prop_assert!(Entry::<AccountUpdate>::from_slot(&slot, seq + 1).is_none());
        prop_assert!(Entry::<AccountUpdate>::from_slot(&slot, seq.wrapping_sub(1)).is_none());
    }

    /// A slot whose canary trailer echoes anything but the expected
    /// sequence is invisible, whatever else it contains — the §4
    /// torn-write guard, plus the stale-epoch guard for reused ring
    /// slots (the trailer of a wrapped-over entry echoes an older seq
    /// and must not validate the new one).
    #[test]
    fn slot_without_canary_is_never_visible(
        seq in 1..1_000u64,
        update in arb_update(),
        echo in 0..u64::MAX / 2,
    ) {
        let entry = Entry { rid: Rid::new(Pid(0), 3), update, deps: DepMap::empty() };
        let mut slot = entry.to_slot(seq, 128);
        let tail = slot.len() - CANARY_TRAILER;
        // `0` models a torn trailer (zeroes); other values stale epochs.
        prop_assume!(echo != seq);
        slot[tail..].copy_from_slice(&echo.to_le_bytes());
        prop_assert!(Entry::<AccountUpdate>::from_slot(&slot, seq).is_none());
    }

    /// Arbitrary byte garbage never decodes into a *visible* entry for
    /// the expected sequence number unless it genuinely encodes one.
    #[test]
    fn corrupted_payload_is_dropped_not_misread(
        mut slot in prop::collection::vec(any::<u8>(), 128),
        flip in 10..127usize,
    ) {
        let entry = Entry {
            rid: Rid::new(Pid(1), 9),
            update: Account::deposit(5),
            deps: DepMap::empty(),
        };
        let good = entry.to_slot(4, 128);
        slot.copy_from_slice(&good);
        slot[flip] ^= 0xff;
        // Either invisible or decodes to *some* well-formed entry — but
        // never panics, and never fabricates an out-of-range process.
        if let Some(e) = Entry::<AccountUpdate>::from_slot(&slot, 4) {
            prop_assert!(e.rid.issuer.index() < 1 << 20);
        }
    }

    #[test]
    fn summary_slot_roundtrips(
        version in 1..u64::MAX / 2,
        counts in prop::collection::vec(0..u64::MAX / 2, 1..5),
        update in arb_update(),
    ) {
        let s = SummarySlot { version, counts: counts.clone(), summary: Some(update) };
        let slot = s.to_slot(8 + 8 * counts.len() + 2 + 64 + 8);
        let back = SummarySlot::<AccountUpdate>::from_slot(&slot, counts.len()).unwrap();
        prop_assert_eq!(back, s);
    }

    /// The seqlock check: any mismatch between leading and trailing
    /// version makes the slot unreadable (a concurrent overwrite).
    #[test]
    fn summary_seqlock_mismatch_is_invisible(
        version in 2..1_000u64,
        skew in 1..100u64,
    ) {
        let s = SummarySlot {
            version,
            counts: vec![version],
            summary: Some(Account::deposit(1)),
        };
        let mut slot = s.to_slot(8 + 8 + 2 + 64 + 8);
        let end = slot.len();
        slot[end - 8..].copy_from_slice(&(version - skew % version).to_le_bytes());
        prop_assume!(version - skew % version != version);
        prop_assert!(SummarySlot::<AccountUpdate>::from_slot(&slot, 1).is_none());
    }
}
