#include "common/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace hodlrx {

namespace fault {

namespace {

constexpr int kNumSites = static_cast<int>(Site::kNumSites);

const char* const kSiteNames[kNumSites] = {"getrf.pivot", "svd.sweeps",
                                           "aca.stall", "workspace.alloc"};

std::atomic<std::uint64_t> g_occurrence[kNumSites];
std::atomic<std::uint64_t> g_injected[kNumSites];
std::atomic<std::uint64_t> g_recovered[kNumSites];

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

/// Parse HODLRX_FAULT ("site[:nth]" tokens, comma separated) and return the
/// spec for site index `site`: 0 when it is not armed, otherwise the 1-based
/// occurrence to fire on (a missing or non-positive :nth means 1). Every
/// token is checked whichever site is asked for (-1 asks for none): one that
/// names no site throws.
std::uint64_t armed_nth(int site) {
  const char* env = std::getenv("HODLRX_FAULT");
  if (env == nullptr || *env == '\0') return 0;
  std::uint64_t nth = 0;
  std::string_view rest(env);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    if (token.empty()) continue;
    const std::size_t colon = token.find(':');
    const std::string_view name = trim(token.substr(0, colon));
    int s = 0;
    while (s < kNumSites && name != kSiteNames[s]) ++s;
    if (s == kNumSites) {
      std::string valid;
      for (const char* n : kSiteNames)
        valid += std::string(valid.empty() ? "" : ", ") + n;
      throw Error("HODLRX_FAULT: unknown fault site '" + std::string(token) +
                  "' (valid sites: " + valid + ")");
    }
    if (s == site && nth == 0) {
      // strtoll stops at the ',' that ends the token.
      const long long v =
          colon == std::string_view::npos
              ? 1
              : std::strtoll(token.data() + colon + 1, nullptr, 10);
      nth = v > 0 ? static_cast<std::uint64_t>(v) : 1;
    }
  }
  return nth;
}

}  // namespace

const char* site_name(Site site) {
  return kSiteNames[static_cast<int>(site)];
}

bool should_fire(Site site) {
  const int i = static_cast<int>(site);
  const std::uint64_t nth = armed_nth(i);
  if (nth == 0) return false;
  const std::uint64_t occurrence =
      g_occurrence[i].fetch_add(1, std::memory_order_relaxed) + 1;
  if (occurrence != nth) return false;
  g_injected[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

void check_spec() { armed_nth(-1); }

}  // namespace fault

namespace fault_stats {

std::uint64_t injected() {
  std::uint64_t total = 0;
  for (const auto& c : fault::g_injected)
    total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t recovered() {
  std::uint64_t total = 0;
  for (const auto& c : fault::g_recovered)
    total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t injected(fault::Site site) {
  return fault::g_injected[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t recovered(fault::Site site) {
  return fault::g_recovered[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

void reset() {
  for (int i = 0; i < fault::kNumSites; ++i) {
    fault::g_occurrence[i].store(0, std::memory_order_relaxed);
    fault::g_injected[i].store(0, std::memory_order_relaxed);
    fault::g_recovered[i].store(0, std::memory_order_relaxed);
  }
}

namespace detail {
void add_recovered(fault::Site site) {
  fault::g_recovered[static_cast<int>(site)].fetch_add(
      1, std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace fault_stats

bool check_finite_enabled() {
  const char* env = std::getenv("HODLRX_CHECK_FINITE");
  if (env == nullptr || *env == '\0') return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "OFF") != 0;
}

}  // namespace hodlrx
