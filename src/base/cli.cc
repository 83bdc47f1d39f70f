/**
 * @file
 * Command-line layer: strict parsing, generated help, outputs.
 */

#include "base/cli.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace enzian::cli {

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max)
{
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        text.remove_prefix(2);
    }
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
    if (text.empty() || ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseDouble(std::string_view text)
{
    const std::string s(text);
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
env(const char *name)
{
    const char *s = std::getenv(name);
    return s ? s : "";
}

std::uint32_t
envThreads()
{
    const std::string s = env("ENZIAN_THREADS");
    std::uint32_t threads = 0;
    if (s.empty())
        return 0;
    if (const std::string want = assign(threads, s.c_str());
        !want.empty()) {
        std::fprintf(stderr, "bad ENZIAN_THREADS '%s' (want %s)\n",
                     s.c_str(), want.c_str());
        std::exit(exitUsage);
    }
    return threads;
}

std::string
assign(double &dst, const char *text)
{
    const auto v = parseDouble(text);
    if (!v)
        return "a number";
    dst = *v;
    return "";
}

std::string
assign(std::string &dst, const char *text)
{
    dst = text;
    return "";
}

Tool::Tool(std::string name, std::string about)
    : name_(std::move(name)), about_(std::move(about))
{
}

Tool &
Tool::add(const std::string &name, const std::string &metavar,
          const std::string &help, Kind kind,
          std::function<std::string(const char *)> set)
{
    flags_.push_back({name, metavar, help, kind, std::move(set)});
    return *this;
}

Tool &
Tool::flag(const std::string &name, bool &on, const std::string &help)
{
    return add(name, "", help, Kind::Switch, [&on](const char *) {
        on = true;
        return std::string();
    });
}

Tool &
Tool::optionalValue(const std::string &name,
                    std::optional<std::string> &dst,
                    const std::string &metavar, const std::string &help)
{
    return add(name, "[" + metavar + "]", help, Kind::Optional,
               [&dst](const char *s) { return assign(dst, s); });
}

Tool &
Tool::operand(const std::string &metavar, std::string &dst)
{
    operandName_ = metavar;
    operand_ = &dst;
    return *this;
}

Tool::Status
Tool::tryParse(int argc, const char *const *argv, std::string &error)
{
    // An operand is anything that is not a flag; "-" names stdout.
    auto isOperand = [](const char *s) {
        return s[0] != '-' || s[1] == '\0';
    };
    bool haveOperand = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help")
            return Status::Help;
        if (isOperand(argv[i])) {
            if (!operand_ || haveOperand) {
                error = "unexpected operand '" + arg + "'";
                return Status::Error;
            }
            *operand_ = arg;
            haveOperand = true;
            continue;
        }
        const auto f = std::find_if(
            flags_.begin(), flags_.end(),
            [&](const Flag &fl) { return fl.name == arg; });
        if (f == flags_.end()) {
            error = "unknown option '" + arg + "'";
            return Status::Error;
        }
        const char *val = "";
        if (f->kind == Kind::Value) {
            if (i + 1 >= argc) {
                error = f->name + " requires a value";
                return Status::Error;
            }
            val = argv[++i];
        } else if (f->kind == Kind::Optional && i + 1 < argc &&
                   isOperand(argv[i + 1])) {
            val = argv[++i];
        }
        if (const std::string want = f->set(val); !want.empty()) {
            error = "bad " + f->name + " '" + val + "' (want " + want + ")";
            return Status::Error;
        }
    }
    if (operand_ && !haveOperand) {
        error = "missing " + operandName_ + " operand";
        return Status::Error;
    }
    return Status::Ok;
}

void
Tool::parse(int argc, const char *const *argv)
{
    std::string error;
    switch (tryParse(argc, argv, error)) {
      case Status::Ok:
        return;
      case Status::Help:
        std::fputs(help().c_str(), stdout);
        std::exit(0);
      case Status::Error:
        usageError("%s (--help for usage)", error.c_str());
    }
}

std::string
Tool::help() const
{
    std::string out = "usage: " + name_ + " [OPTION]..." +
                      (operand_ ? " " + operandName_ : "") + "\n" +
                      about_ + "\n\n";
    // Help text starts in column 26; longer flags (choice lists) put
    // it on the next line.
    auto row = [&out](const std::string &left, const std::string &text) {
        out += "  " + left +
               (left.size() < 23 ? std::string(24 - left.size(), ' ')
                                 : "\n" + std::string(26, ' ')) +
               text + "\n";
    };
    bool anyOptional = false;
    for (const Flag &f : flags_) {
        row(f.metavar.empty() ? f.name : f.name + " " + f.metavar, f.help);
        anyOptional |= f.kind == Kind::Optional;
    }
    row("--help", "print this help and exit");
    if (anyOptional)
        out += "\nAn output FILE of '-', or an omitted optional FILE, is "
               "stdout.";
    return out + "\nExit status: 0 ok, 1 the run failed or an output "
                 "could not be written,\n2 usage error.\n";
}

void
Tool::usageError(const char *fmt, ...) const
{
    std::fprintf(stderr, "%s: ", name_.c_str());
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::exit(exitUsage);
}

bool
Tool::writeTo(const std::string &path,
              const std::function<void(std::ostream &)> &fn) const
{
    if (path.empty() || path == "-") {
        fn(std::cout);
        return true;
    }
    std::ofstream f(path, std::ios::trunc);
    if (f)
        fn(f);
    f.close();
    if (!f) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", name_.c_str(),
                     path.c_str());
        return false;
    }
    std::fprintf(stderr, "%s: wrote %s\n", name_.c_str(), path.c_str());
    return true;
}

} // namespace enzian::cli
