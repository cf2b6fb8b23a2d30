//===- profiler/SiteTable.h - Nested-site interning -------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper records each object's *nested allocation site* -- "the call
/// chain leading to the allocation" -- and nested last-use site, with a
/// configurable nesting level trading accuracy for speed (section 2.1.1).
/// SiteTable interns such chains into dense SiteIds so that per-object
/// trailers and log records carry one word each.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_SITETABLE_H
#define JDRAG_PROFILER_SITETABLE_H

#include "ir/Program.h"
#include "vm/Events.h"

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace jdrag::profiler {

/// Dense id for an interned (possibly nested) site.
using SiteId = std::uint32_t;
inline constexpr SiteId InvalidSite = ~static_cast<SiteId>(0);

/// One frame of an interned chain.
struct SiteFrame {
  ir::MethodId Method;
  std::uint32_t Pc = 0;
  std::uint32_t Line = 0;

  friend bool operator==(const SiteFrame &A, const SiteFrame &B) {
    return A.Method == B.Method && A.Pc == B.Pc && A.Line == B.Line;
  }
};

/// Start of every reader's error for a DefineSite frame that names a
/// method or pc the program does not have: the recording was made from
/// a different program than the one it is replayed against.
inline constexpr std::string_view ProgramMismatch =
    "recording does not match the program";

/// Describes the first of \p Frames (of site \p Id) that does not fit
/// \p P -- a method id past its methods, or a pc past that method's
/// code -- as a ProgramMismatch error; empty when every frame fits.
std::string siteMisfit(const ir::Program &P, SiteId Id,
                       std::span<const SiteFrame> Frames);

/// True when \p Err is (or carries) a ProgramMismatch error.
inline bool isProgramMismatch(std::string_view Err) {
  return Err.find(ProgramMismatch) != std::string_view::npos;
}

/// Interns call chains. Chains are innermost-frame-first; the innermost
/// frame of an allocation chain is the `new` bytecode itself (the
/// *allocation site*); outer frames give the nesting context.
class SiteTable {
public:
  SiteTable();

  /// Interns the innermost min(Chain.size(), MaxDepth) frames of
  /// \p Chain. An empty chain (VM-internal allocation) gets a dedicated
  /// "<vm>" site.
  SiteId intern(std::span<const vm::CallFrameRef> Chain,
                std::uint32_t MaxDepth);

  /// Interns an explicit frame list (used by the log reader).
  SiteId internFrames(std::vector<SiteFrame> Frames);

  /// Unknown ids (InvalidSite, or a site lost to a truncated or
  /// tail-replayed recording) resolve to an empty chain rather than
  /// throwing: logs whose records reference unresolvable sites are a
  /// legitimate salvage outcome, and every analysis must survive them.
  const std::vector<SiteFrame> &chain(SiteId Id) const {
    static const std::vector<SiteFrame> Empty;
    return Id < Chains.size() ? Chains[Id] : Empty;
  }

  /// The innermost frame, or nullptr for the "<vm>" site and for
  /// unknown ids.
  const SiteFrame *innermost(SiteId Id) const {
    if (Id >= Chains.size())
      return nullptr;
    const auto &C = Chains[Id];
    return C.empty() ? nullptr : &C.front();
  }

  /// "Cls.m:12 <- Cls.n:40" (innermost first), or "<vm>".
  std::string describe(const ir::Program &P, SiteId Id) const;

  /// "Cls.m:12" for the innermost frame only (the paper's coarse
  /// "allocation site" partition).
  std::string describeInnermost(const ir::Program &P, SiteId Id) const;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(Chains.size());
  }

private:
  struct ChainHash {
    std::size_t operator()(const std::vector<SiteFrame> &C) const;
  };

  std::vector<std::vector<SiteFrame>> Chains;
  std::unordered_map<std::vector<SiteFrame>, SiteId, ChainHash> Map;
};

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_SITETABLE_H
