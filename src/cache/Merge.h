//===- Merge.h - Shard-report merging -------------------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reassembles one campaign report from the K shard reports of a
/// distributed run. Because shards are deterministic round-robin
/// slices (Shard.h) and job entries round-trip losslessly (JobIo.h),
/// the merge is exact: parse every shard's results, interleave them
/// back to campaign order, and re-emit through Report::toJson — the
/// output is byte-identical to what a single unsharded run would have
/// written. A report with no shard coordinates is a complete campaign
/// (shard 1 of 1), so merging a single unsharded report is the
/// identity — which is also the cheapest end-to-end check that a
/// report survives the parse/re-emit round-trip.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_CACHE_MERGE_H
#define ISOPREDICT_CACHE_MERGE_H

#include "engine/Report.h"

#include <optional>
#include <string>
#include <vector>

namespace isopredict {
namespace cache {

/// Merges the shard report documents \p Docs (campaign-report JSON, in
/// any order) into the unsharded campaign's Report. Requires a
/// consistent campaign name and shard count across documents and
/// exactly one document per shard index. Returns std::nullopt (and
/// sets \p Error when non-null) on inconsistent or malformed input.
std::optional<engine::Report>
mergeShardReports(const std::vector<std::string> &Docs,
                  std::string *Error = nullptr);

} // namespace cache
} // namespace isopredict

#endif // ISOPREDICT_CACHE_MERGE_H
