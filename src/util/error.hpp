#pragma once
// Error-handling helpers: checked invariants that abort with a message.
//
// GNB_CHECK is used for conditions that indicate a programming error or a
// violated invariant; it is active in all build types because silent
// corruption in a parallel runtime is far more expensive than the branch.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gnb {

/// Thrown by GNB_THROW_IF and by recoverable library errors (bad input files,
/// malformed sequences, invalid configuration).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Base of the typed RPC failures the runtime surfaces instead of aborting:
/// callers that opted into the legacy `void(Bytes)` callback (no status
/// channel) receive peer death as an exception they can catch, rather than
/// a GNB_CHECK abort.
class RpcError : public Error {
 public:
  explicit RpcError(const std::string& what) : Error(what) {}
};

/// An in-flight RPC can never complete because its target rank died.
class RpcPeerDeadError : public RpcError {
 public:
  RpcPeerDeadError(const std::string& what, std::uint32_t peer_rank)
      : RpcError(what), peer(peer_rank) {}
  std::uint32_t peer;
};

/// The recovery fixpoint exceeded its configured attempt budget
/// (ProtoConfig::max_recovery_attempts): membership kept flapping faster
/// than recovery could converge. Thrown instead of livelocking; `gnbody`
/// maps it to a distinct nonzero exit code so operators can tell "gave up"
/// from "crashed".
class UnrecoverableError : public Error {
 public:
  explicit UnrecoverableError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const std::string& msg) {
  std::fprintf(stderr, "GNB_CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg.empty() ? "" : " — ", msg.c_str());
  std::abort();
}
}  // namespace detail

}  // namespace gnb

/// Abort with a diagnostic if `cond` is false. Always enabled.
#define GNB_CHECK(cond)                                                 \
  do {                                                                  \
    if (!(cond)) ::gnb::detail::check_failed(#cond, __FILE__, __LINE__, {}); \
  } while (0)

/// Abort with a diagnostic and a formatted message if `cond` is false.
#define GNB_CHECK_MSG(cond, msg)                                        \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream gnb_oss_;                                      \
      gnb_oss_ << msg;                                                  \
      ::gnb::detail::check_failed(#cond, __FILE__, __LINE__, gnb_oss_.str()); \
    }                                                                   \
  } while (0)

/// Throw gnb::Error with a formatted message if `cond` is true.
#define GNB_THROW_IF(cond, msg)            \
  do {                                     \
    if (cond) {                            \
      std::ostringstream gnb_oss_;         \
      gnb_oss_ << msg;                     \
      throw ::gnb::Error(gnb_oss_.str()); \
    }                                      \
  } while (0)
