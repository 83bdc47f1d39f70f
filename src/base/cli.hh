/**
 * @file
 * The command-line layer shared by the simulator's tools and benches.
 *
 * A tool declares a table of flags (name, value kind, destination,
 * one-line help); the layer parses argv strictly against it,
 * generates --help from it, and owns the conventions every tool
 * follows:
 *
 * - Exit status 0 when the run is clean, 1 when it found a failure or
 *   an output file could not be written, 2 on any usage error
 *   (unknown flag, missing or malformed value, bad environment).
 * - Numbers must parse in full and fit their destination: no sign on
 *   unsigned values, no trailing garbage, no silent wrap.
 * - An output path of "-" (or an omitted optional FILE) is stdout.
 * - ENZIAN_THREADS is read in one place, with the same strictness.
 */

#ifndef ENZIAN_BASE_CLI_HH
#define ENZIAN_BASE_CLI_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace enzian::cli {

/** Exit status of a run that found a failure or lost an output. */
constexpr int exitFailure = 1;
/** Exit status of a usage error. */
constexpr int exitUsage = 2;

/**
 * Parse an unsigned integer (decimal, or hex with a 0x prefix) that
 * spans all of @p text and is at most @p max; std::nullopt otherwise.
 */
std::optional<std::uint64_t> parseUnsigned(std::string_view text,
                                           std::uint64_t max);

/** Parse a finite number spanning all of @p text; else std::nullopt. */
std::optional<double> parseDouble(std::string_view text);

/** Value of environment variable @p name; empty when unset. */
std::string env(const char *name);

/**
 * Worker threads requested via ENZIAN_THREADS (0 when unset or
 * empty). A malformed value is a usage error: exits with status 2.
 */
std::uint32_t envThreads();

/**
 * Store @p text into @p dst, converted to the destination's type.
 * Returns what a valid value looks like on failure, "" on success.
 */
template <std::unsigned_integral T>
std::string
assign(T &dst, const char *text)
{
    const auto v =
        parseUnsigned(text, std::numeric_limits<T>::max());
    if (!v)
        return "an unsigned integer <= " +
               std::to_string(std::numeric_limits<T>::max());
    dst = static_cast<T>(*v);
    return "";
}
std::string assign(double &dst, const char *text);
std::string assign(std::string &dst, const char *text);

template <typename T>
std::string
assign(std::optional<T> &dst, const char *text)
{
    T v{};
    std::string want = assign(v, text);
    if (want.empty())
        dst = std::move(v);
    return want;
}

/**
 * One tool's flag table, parser, help text and output conventions.
 * Destinations are held by reference until parse() returns.
 */
class Tool
{
  public:
    /** @p name prefixes every message; @p about heads --help. */
    Tool(std::string name, std::string about);

    /** A switch: its presence sets @p on. */
    Tool &flag(const std::string &name, bool &on,
               const std::string &help);

    /**
     * A flag that takes a value, stored into @p dst: an unsigned
     * integer of the destination's width, a number, a string, or a
     * std::optional of one of those (set only when given).
     */
    template <typename T>
    Tool &
    value(const std::string &name, T &dst, const std::string &metavar,
          const std::string &help)
    {
        return add(name, metavar, help, Kind::Value,
                   [&dst](const char *s) { return assign(dst, s); });
    }

    /** A flag whose string value must be one of @p choices. */
    template <typename T>
    Tool &
    choice(const std::string &name, T &dst,
           const std::vector<std::string> &choices,
           const std::string &help)
    {
        std::string list;
        for (const std::string &c : choices)
            list += (list.empty() ? "" : "|") + c;
        return add(name, list, help, Kind::Value,
                   [&dst, choices, list](const char *s) {
                       for (const std::string &c : choices)
                           if (c == s)
                               return assign(dst, s);
                       return "one of " + list;
                   });
    }

    /**
     * A flag with an optional operand (a FILE, a range spec): the next
     * argument is consumed when it is exactly "-" or does not start
     * with '-'. Presence sets @p dst, to "" when no operand follows.
     */
    Tool &optionalValue(const std::string &name,
                        std::optional<std::string> &dst,
                        const std::string &metavar,
                        const std::string &help);

    /** The tool's one required positional operand. */
    Tool &operand(const std::string &metavar, std::string &dst);

    /** Outcome of tryParse(). */
    enum class Status
    {
        Ok,
        Help,
        Error
    };

    /** Parse argv against the table; @p error explains an Error. */
    Status tryParse(int argc, const char *const *argv,
                    std::string &error);

    /**
     * Parse argv; --help prints help() to stdout and exits 0, a usage
     * error prints its message to stderr and exits 2.
     */
    void parse(int argc, const char *const *argv);

    /** The --help text, generated from the flag table. */
    std::string help() const;

    /** Print "NAME: <printf message>" to stderr and exit 2. */
    [[noreturn]] void usageError(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    /**
     * Write via @p fn to @p path, or to stdout for "-" or "". Returns
     * false (after saying why on stderr) when the file cannot be
     * written; the caller then exits with status 1.
     */
    bool writeTo(const std::string &path,
                 const std::function<void(std::ostream &)> &fn) const;

  private:
    enum class Kind
    {
        Switch,
        Value,
        Optional
    };

    struct Flag
    {
        std::string name, metavar, help;
        Kind kind;
        /** Store a value; returns what a valid one looks like. */
        std::function<std::string(const char *)> set;
    };

    Tool &add(const std::string &name, const std::string &metavar,
              const std::string &help, Kind kind,
              std::function<std::string(const char *)> set);

    std::string name_, about_;
    std::vector<Flag> flags_;
    std::string operandName_;
    std::string *operand_ = nullptr;
};

} // namespace enzian::cli

#endif // ENZIAN_BASE_CLI_HH
