#ifndef SEVE_TOOLS_SEVE_ANALYZE_ANALYZE_H_
#define SEVE_TOOLS_SEVE_ANALYZE_ANALYZE_H_

#include <string>
#include <vector>

#include "lexer.h"

// seve-analyze: stage 2 of the SEVE static-analysis pipeline
// (DESIGN.md §10). Where seve-lint checks one file at a time for token
// patterns, seve-analyze parses the whole tree through the shared lexer
// into a per-translation-unit symbol table, an include graph and an
// approximate call graph, then runs flow-aware reachability rules the
// tokenizer alone cannot express:
//
//   digest-path-purity    every function transitively reachable from the
//                         digest roots (WorldState::Digest/DigestOf/
//                         RescanDigest, RunReport folding via
//                         DigestReport, and the commit-stamp paths
//                         SeveShardServer::GlobalStampOf/StampOffsetAt/
//                         LocalPosOfStamp/FenceStampsAbove,
//                         ShardStamp::Global) must be free of banned
//                         nondeterminism: wall clocks, rand, thread ids,
//                         unordered containers, pointer-keyed maps.
//                         Findings print the full call chain from the
//                         root to the offending token.
//   hot-alloc-reachable   the call-graph generalization of seve-lint's
//                         hot-vector-realloc: an append with no reserve
//                         on the same receiver in its defining file, or
//                         a raw `new`, is flagged when the containing
//                         function is reachable from the per-tick
//                         flush/route/fan-out kernels or the
//                         per-evaluation world queries — even when the
//                         allocation hides two helpers deep in another
//                         layer. src/common is exempt (the vetted
//                         substrate). Sites already carrying a
//                         `seve-lint: allow(hot-vector-realloc)` are
//                         honored (alias), so one annotation covers both
//                         stages.
//   state-machine         every assignment to a protocol state field in
//                         the spec's scope is checked against the
//                         transition table declared in the
//                         machine-readable spec (src/shard/
//                         protocol_states.sm): undeclared target states,
//                         transitions performed by a handler the spec
//                         does not name, guarded from-states without a
//                         declared edge, stale via-functions and
//                         declared edges no handler performs are all
//                         findings — illegal transitions become build
//                         failures instead of chaos-test flakes.
//   wire-completeness     v2 of seve-lint's wire-missing-codec: every
//                         *MsgKind enumerator must appear in all four
//                         places — enum declaration, RegisterBody codec
//                         in src/wire, wire_roundtrip_test coverage and
//                         the fuzz-corpus kind list — and every number
//                         in the fuzz list must be a declared kind. A
//                         kind that exists in only some of the four is a
//                         finding.
//   bad-annotation        a malformed `// seve-analyze: allow...`
//   unused-allow          comment, or one that suppressed nothing
//                         (same contract as seve-lint's).
//   forbidden-allow       a seve-analyze annotation inside a protected
//                         digest path (--forbid-allow-in).
//
// Escape hatch: `// seve-analyze: allow(rule)[: reason]` on the line of
// the finding or the line above, `allow-file(rule)` for a whole file.
// forbidden-allow, bad-annotation and unused-allow are never
// suppressible.

namespace seve_analyze {

using seve_lint::SourceFile;

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  // Call chain from the reachability root to the offending function,
  // "Qualified::Name (file:line)" per hop; empty for non-reachability
  // rules.
  std::vector<std::string> chain;
};

struct AnalyzeConfig {
  // Reachability roots, matched against qualified function names
  // ("WorldState::Digest") or simple names ("DigestReport").
  std::vector<std::string> digest_roots;
  std::vector<std::string> hot_roots;
  // Functions hot reachability does not traverse THROUGH: their own
  // bodies are still checked, but not their callees. Used for
  // scheduling boundaries — handing a message to the simulated network
  // ends the sender's tick; delivery runs in a later event-loop slot on
  // the receiver's budget.
  std::vector<std::string> hot_barriers;
  // State-machine spec (see src/shard/protocol_states.sm for the
  // format); empty text disables the rule.
  std::string spec_path;
  std::string spec_text;
  // Repo-relative paths of the wire round-trip test and the fuzz
  // harness; the wire-completeness rule only checks the columns whose
  // file is present in the input set.
  std::string roundtrip_test_path = "tests/wire_roundtrip_test.cc";
  std::string fuzz_harness_path = "tests/wire_fuzz_main.cc";
  // Path prefixes where a seve-analyze annotation is itself an error.
  std::vector<std::string> forbid_allow_prefixes;
};

// Roots and forbid prefixes for this tree (the configuration CI runs).
AnalyzeConfig DefaultConfig();

// Runs every rule over the given in-memory tree. Findings are sorted by
// (file, line, rule).
std::vector<Finding> AnalyzeFiles(const std::vector<SourceFile>& files,
                                  const AnalyzeConfig& config);

// Loads `<root>/src/**/*.{h,cc}` plus the two wire test files and the
// state-machine spec, then analyzes. Returns false and sets `error` if
// the tree cannot be read.
bool AnalyzeTree(const std::string& root, AnalyzeConfig config,
                 std::vector<Finding>* findings, int* files_checked,
                 std::string* error);

// Machine-readable report:
// {"files_checked":N,"finding_count":N,"findings":[{...,"chain":[...]}]}.
std::string ToJson(const std::vector<Finding>& findings, int files_checked);

}  // namespace seve_analyze

#endif  // SEVE_TOOLS_SEVE_ANALYZE_ANALYZE_H_
