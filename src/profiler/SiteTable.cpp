//===- profiler/SiteTable.cpp ---------------------------------------------===//

#include "profiler/SiteTable.h"

#include "support/Format.h"

using namespace jdrag;
using namespace jdrag::profiler;

std::size_t
SiteTable::ChainHash::operator()(const std::vector<SiteFrame> &C) const {
  std::size_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](std::size_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  for (const SiteFrame &F : C) {
    Mix(F.Method.Index);
    Mix(F.Pc);
  }
  return H;
}

SiteTable::SiteTable() {
  // Real workloads intern hundreds to thousands of distinct chains;
  // pre-sizing avoids the early rehash cascade, and a load factor of 0.5
  // keeps the first-miss probe cost flat once the table is warm.
  Chains.reserve(1024);
  Map.reserve(1024);
  Map.max_load_factor(0.5f);
}

SiteId SiteTable::intern(std::span<const vm::CallFrameRef> Chain,
                         std::uint32_t MaxDepth) {
  std::vector<SiteFrame> Frames;
  std::size_t N = std::min<std::size_t>(Chain.size(), MaxDepth);
  Frames.reserve(N);
  for (std::size_t I = 0; I != N; ++I)
    Frames.push_back({Chain[I].Method, Chain[I].Pc, Chain[I].Line});
  return internFrames(std::move(Frames));
}

SiteId SiteTable::internFrames(std::vector<SiteFrame> Frames) {
  auto It = Map.find(Frames);
  if (It != Map.end())
    return It->second;
  SiteId Id = static_cast<SiteId>(Chains.size());
  Map.emplace(Frames, Id);
  Chains.push_back(std::move(Frames));
  return Id;
}

std::string SiteTable::describe(const ir::Program &P, SiteId Id) const {
  if (Id >= Chains.size())
    return "<unknown site>";
  const auto &C = Chains[Id];
  if (C.empty())
    return "<vm>";
  std::string Out;
  for (std::size_t I = 0, E = C.size(); I != E; ++I) {
    if (I)
      Out += " <- ";
    Out += formatString("%s:%u", P.qualifiedMethodName(C[I].Method).c_str(),
                        C[I].Line);
  }
  return Out;
}

std::string SiteTable::describeInnermost(const ir::Program &P,
                                         SiteId Id) const {
  if (Id >= Chains.size())
    return "<unknown site>";
  const auto &C = Chains[Id];
  if (C.empty())
    return "<vm>";
  return formatString("%s:%u", P.qualifiedMethodName(C[0].Method).c_str(),
                      C[0].Line);
}

std::string jdrag::profiler::siteMisfit(const ir::Program &P, SiteId Id,
                                        std::span<const SiteFrame> Frames) {
  for (const SiteFrame &F : Frames) {
    if (F.Method.Index >= P.Methods.size())
      return formatString("%.*s: site %u names method %u, but it has %zu methods",
                          static_cast<int>(ProgramMismatch.size()),
                          ProgramMismatch.data(), Id, F.Method.Index,
                          P.Methods.size());
    const ir::MethodInfo &M = P.Methods[F.Method.Index];
    if (F.Pc >= M.Code.size())
      return formatString(
          "%.*s: site %u names %s pc %u, past its %zu instructions",
          static_cast<int>(ProgramMismatch.size()), ProgramMismatch.data(), Id,
          P.qualifiedMethodName(M.Id).c_str(), F.Pc, M.Code.size());
  }
  return {};
}
