#ifndef HIMPACT_SERVICE_WAL_APPLY_H_
#define HIMPACT_SERVICE_WAL_APPLY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/wal.h"
#include "service/service.h"
#include "stream/types.h"

/// \file
/// The service-level WAL record encoding and replay gate.
///
/// `io/wal.h` moves opaque payloads; this layer defines what is inside
/// them — one applied ingest event per record, fixed-width LE fields
/// in the `net/wire.h` style:
///
///   add    0x01 | user u64 | value u64 | stripe_seq u64
///   paper  0x02 | paper u64 | citations u64 | nauthors u8 |
///            nauthors x (author u64 | stripe_seq u64)
///
/// `stripe_seq` is the author's stripe's event count *after* this event
/// applied — the per-stripe analogue of an ARIES page LSN. Replay
/// re-applies a logged event on a stripe iff `stripe_seq >
/// TieredUserRegistry::StripeEvents(stripe)`. A single global sequence
/// could not decide correctly: checkpoints snapshot stripes one at a
/// time under concurrent applies (per-stripe consistent, not a global
/// cut), so the same record can be already-covered on one author's
/// stripe and missing from another's. The per-stripe gate applies
/// exactly the missing halves; when no save raced the ingest, every
/// gate of a record agrees and replay reduces to "apply everything
/// after the checkpoint", byte-identical to the uncrashed run.
///
/// Replay runs one WAL segment at a time. A serial gate decodes every
/// record and decides each author's verdict against running per-stripe
/// counts, seeded from one `StripeEvents` snapshot. Then the segment
/// applies in parallel through `HImpactService::ApplyPaper`: one job per
/// stripe's registry run, in log order, and one for the grid run. The
/// grid has its own gate, on its first author's `stripe_seq` against the
/// counts the restored grid was saved at (`HImpactService::GridCoverage`),
/// because a save cut short can leave stripe files newer than
/// `path.grid`. The result is byte-identical to a serial replay.
///
/// Malformed payloads (version skew, bit flips that survived the
/// envelope CRC by luck) are counted and skipped, never fatal. See
/// docs/CHECKPOINTS.md for the recovery matrix.

namespace himpact {

/// Record type bytes (on-disk format: append only, never renumber).
inline constexpr std::uint8_t kWalEventAdd = 0x01;
inline constexpr std::uint8_t kWalEventPaper = 0x02;

/// Encodes one applied `RecordResponseCount` with the post-apply event
/// count of the user's stripe.
std::vector<std::uint8_t> EncodeWalAdd(AuthorId user, std::uint64_t value,
                                       std::uint64_t stripe_seq);

/// Encodes one applied `IngestPaper`; `stripe_seqs[i]` is author i's
/// stripe's post-apply event count (co-authors sharing a stripe get
/// consecutive values, in author order). Requires `stripe_seqs.size()
/// >= paper.authors.size()`.
std::vector<std::uint8_t> EncodeWalPaper(
    const PaperTuple& paper, std::span<const std::uint64_t> stripe_seqs);

/// Computes the post-apply stripe sequences for `paper` and appends the
/// encoded record to `wal`. Must run on the (single) ingest thread
/// after the event applied and before the next event applies, so the
/// registry's stripe counts still equal the post-apply state of this
/// event. The add flavor likewise.
Status AppendWalAdd(WalWriter* wal, const HImpactService& service,
                    AuthorId user, std::uint64_t value);
Status AppendWalPaper(WalWriter* wal, const HImpactService& service,
                      const PaperTuple& paper);

/// What replay did with the repaired log.
struct WalApplyStats {
  std::uint64_t applied_adds = 0;      ///< to the stripe, the grid or both
  std::uint64_t applied_papers = 0;    ///< papers applied on every stripe
  std::uint64_t partial_papers = 0;    ///< on a strict subset, or grid only
  std::uint64_t skipped_records = 0;   ///< fully covered by the checkpoint
  std::uint64_t malformed_records = 0; ///< undecodable payloads, skipped
};

/// Repairs the WAL at `dir` and replays it segment by segment
/// (`ScanWal`) through `service` under the per-stripe gate, as the
/// file comment describes. Call after `RestoreFrom` (or on a fresh
/// service when no checkpoint opened) and before serving: nothing else
/// may apply to `service` meanwhile. It waits on pool jobs, so it must
/// not itself run as one. A log with no gated record submits no job.
/// `read_stats` / `apply_stats` may be null.
Status ReplayWal(const std::string& dir, HImpactService* service,
                 WalReplayStats* read_stats, WalApplyStats* apply_stats);

}  // namespace himpact

#endif  // HIMPACT_SERVICE_WAL_APPLY_H_
