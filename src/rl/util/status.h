/**
 * @file
 * The recoverable half of the error spine: rl::Status / rl::Expected.
 *
 * rl/util/logging.h keeps the two unconditional stops (rl_panic for
 * library bugs, rl_fatal for command-line tools); everything an
 * *input* can trigger -- malformed FASTA/GFA bytes, a matrix that is
 * not race-ready, a plan the substrate cannot realize, a request over
 * a resource budget -- returns a typed Status instead, so a daemon
 * can bounce the one bad request and keep serving.
 *
 * The contract, layer by layer:
 *
 *  - parsers and validators return Status / Expected<T> ("try" APIs);
 *  - the legacy fatal entry points survive as thin wrappers that call
 *    valueOrFatal()/orFatal() -- one line each, for CLI tools and
 *    examples where exit(1) with the same message is the right UX;
 *  - rl_panic / rl_assert remain for invariants no input can reach.
 *
 * ErrorCode is deliberately small and wire-stable: racelogic::serve
 * maps each code to exactly one wire status (see serve/wire.h), so a
 * new failure mode means picking an existing code, not growing the
 * protocol.
 */

#ifndef RACELOGIC_UTIL_STATUS_H
#define RACELOGIC_UTIL_STATUS_H

#include <optional>
#include <string>
#include <utility>

#include "rl/util/logging.h"

namespace racelogic {

/** Coarse, wire-stable classification of recoverable failures. */
enum class ErrorCode : uint8_t {
    Ok = 0,
    /** Well-formed input that violates a semantic precondition. */
    InvalidArgument = 1,
    /** Bytes/text that do not parse as the claimed format. */
    ParseError = 2,
    /** Valid input the race substrate cannot realize (e.g. a cyclic
     *  graph, reverse-strand GFA links, weights past the delay cap). */
    Unsupported = 3,
    /** A named thing (file, GFA segment) does not exist. */
    NotFound = 4,
    /** Input larger than an admission limit (sequence/batch caps). */
    Oversized = 5,
    /** A compute/memory budget would be exceeded (product states,
     *  grid cells, arenas) -- the request is valid but too expensive. */
    ResourceExhausted = 6,
};

/** Stable lowercase name for an ErrorCode ("invalid-argument"...). */
const char *errorCodeName(ErrorCode code);

/**
 * One recoverable verdict: an ErrorCode plus a human-readable message
 * (same prose the old rl_fatal sites printed).  Default-constructed
 * Status is Ok.  [[nodiscard]] because a dropped Status is exactly
 * the silent-corruption bug this type exists to prevent.
 */
class [[nodiscard]] Status
{
  public:
    Status() = default; // Ok

    /** Build an error Status; message parts are folded via op<<. */
    template <typename... Args>
    static Status error(ErrorCode code, Args &&...parts)
    {
        rl_assert(code != ErrorCode::Ok,
                  "Status::error() needs a non-Ok code");
        Status s;
        s.code_ = code;
        s.message_ = util::detail::concat(std::forward<Args>(parts)...);
        return s;
    }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "<code-name>: <message>" (or "ok") for logs and tests. */
    std::string toString() const;

    /**
     * The CLI adapter: no-op when Ok, rl_fatal(message) otherwise.
     * This is the only sanctioned way back from Status to exit(1).
     */
    void orFatal() const
    {
        if (!ok())
            rl_fatal(message_);
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * Value-or-Status.  Holds T on success, a non-Ok Status on failure.
 * Converting constructors keep the "try" APIs readable:
 *
 *   Expected<Graph> tryReadGfa(...) {
 *       if (bad) return Status::error(ErrorCode::ParseError, ...);
 *       return graph;
 *   }
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Status status) : status_(std::move(status))
    {
        rl_assert(!status_.ok(),
                  "Expected<T> from a Status requires a non-Ok status");
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    T &value()
    {
        rl_assert(ok(), "value() on an error Expected: ",
                  status_.message());
        return *value_;
    }
    const T &value() const
    {
        rl_assert(ok(), "value() on an error Expected: ",
                  status_.message());
        return *value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    /** The CLI adapter: the value, or rl_fatal with the message. */
    T valueOrFatal() &&
    {
        if (!ok())
            rl_fatal(status_.message());
        return std::move(*value_);
    }

  private:
    std::optional<T> value_;
    Status status_; // Ok iff value_ holds
};

} // namespace racelogic

/** The short spelling used throughout docs and call sites. */
namespace rl = racelogic;

#endif // RACELOGIC_UTIL_STATUS_H
