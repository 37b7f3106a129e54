// The only translation unit compiled with -mrtm.  Keeping the intrinsics
// here lets every other TU build without TSX support while the runtime
// CPUID gate decides whether this code path is ever taken.
#include "htm/rtm.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#if defined(RNTREE_HAVE_RTM)
#include <immintrin.h>
#endif
#endif

namespace rnt::htm {

RetryPolicy& default_retry_policy() noexcept {
  static RetryPolicy policy;
  return policy;
}

namespace detail {
std::atomic<AbortInjector*> g_abort_injector{nullptr};
}  // namespace detail

AbortInjector* install_abort_injector(AbortInjector* inj) noexcept {
  return detail::g_abort_injector.exchange(inj, std::memory_order_acq_rel);
}

bool rtm_supported() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx & (1u << 11)) != 0;  // RTM feature bit
  }();
  return supported;
#else
  return false;
#endif
}

#if defined(RNTREE_HAVE_RTM)
namespace detail {

unsigned xbegin() noexcept { return _xbegin(); }

void xend() noexcept { _xend(); }

void xabort_conflict() noexcept { _xabort(0xff); }

}  // namespace detail
#endif

}  // namespace rnt::htm
