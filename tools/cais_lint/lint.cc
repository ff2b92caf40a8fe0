#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hh"

namespace cais::lint
{

namespace
{

// ------------------------------------------------------------------
// Lexer
// ------------------------------------------------------------------

enum class Tok
{
    ident,
    number,
    str,     ///< string or char literal (content dropped)
    punct,   ///< single- or multi-char operator ("::", "->" combined)
    include, ///< #include directive; text = header name without <> / ""
};

struct Token
{
    Tok kind;
    std::string text;
    int line;
};

/** One suppression comment, parsed from `// cais-lint: allow(...)`. */
struct Suppression
{
    int line = 0;
    bool ownLine = false; ///< nothing but the comment on its line
    bool valid = false;   ///< known rules + "--" justification present
    std::set<std::string> rules;
    std::string error; ///< why invalid (for the X1 finding)
};

struct LexedFile
{
    std::string path;
    std::vector<Token> toks;
    std::vector<Suppression> sups;
};

bool
knownRule(const std::string &id)
{
    for (const RuleInfo &r : ruleTable())
        if (id == r.id)
            return true;
    return false;
}

/** Parse a comment body for the suppression grammar. */
void
parseComment(const std::string &body, int line, bool own_line,
             std::vector<Suppression> &out)
{
    std::size_t at = body.find("cais-lint:");
    if (at == std::string::npos)
        return;

    Suppression s;
    s.line = line;
    s.ownLine = own_line;

    std::size_t open = body.find("allow(", at);
    if (open == std::string::npos) {
        s.error = "expected 'allow(<rule,...>)' after 'cais-lint:'";
        out.push_back(std::move(s));
        return;
    }
    std::size_t close = body.find(')', open);
    if (close == std::string::npos) {
        s.error = "unterminated allow( list";
        out.push_back(std::move(s));
        return;
    }
    std::string list = body.substr(open + 6, close - open - 6);
    std::istringstream ss(list);
    std::string id;
    while (std::getline(ss, id, ',')) {
        while (!id.empty() && std::isspace(static_cast<unsigned char>(
                                  id.front())))
            id.erase(id.begin());
        while (!id.empty() && std::isspace(static_cast<unsigned char>(
                                  id.back())))
            id.pop_back();
        if (id.empty())
            continue;
        if (!knownRule(id)) {
            s.error = "unknown rule '" + id + "' in allow()";
            out.push_back(std::move(s));
            return;
        }
        s.rules.insert(id);
    }
    if (s.rules.empty()) {
        s.error = "empty allow() list";
        out.push_back(std::move(s));
        return;
    }
    if (body.find("--", close) == std::string::npos) {
        s.error = "missing '-- <justification>' after allow()";
        out.push_back(std::move(s));
        return;
    }
    s.valid = true;
    out.push_back(std::move(s));
}

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexedFile
lex(const std::string &path, const std::string &src)
{
    LexedFile out;
    out.path = path;

    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();
    bool lineHasCode = false; // non-comment, non-ws content seen

    auto newline = [&] {
        ++line;
        lineHasCode = false;
    };

    while (i < n) {
        char c = src[i];

        if (c == '\n') {
            newline();
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t e = src.find('\n', i);
            if (e == std::string::npos)
                e = n;
            parseComment(src.substr(i + 2, e - i - 2), line, !lineHasCode,
                         out.sups);
            i = e;
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            int startLine = line;
            bool own = !lineHasCode;
            std::size_t e = src.find("*/", i + 2);
            if (e == std::string::npos)
                e = n;
            std::string body = src.substr(i + 2, e - i - 2);
            parseComment(body, startLine, own, out.sups);
            for (std::size_t k = i; k < e && k < n; ++k)
                if (src[k] == '\n')
                    newline();
            i = (e == n) ? n : e + 2;
            continue;
        }

        // Preprocessor directive: keep #include targets, drop the rest.
        if (c == '#' && !lineHasCode) {
            std::size_t e = i;
            while (e < n) {
                if (src[e] == '\n' && (e == 0 || src[e - 1] != '\\'))
                    break;
                ++e;
            }
            std::string pp = src.substr(i, e - i);
            std::size_t inc = pp.find("include");
            if (inc != std::string::npos) {
                std::size_t lo = pp.find_first_of("<\"", inc);
                if (lo != std::string::npos) {
                    char closeCh = pp[lo] == '<' ? '>' : '"';
                    std::size_t hi = pp.find(closeCh, lo + 1);
                    if (hi != std::string::npos)
                        out.toks.push_back({Tok::include,
                                            pp.substr(lo + 1, hi - lo - 1),
                                            line});
                }
            }
            for (std::size_t k = i; k < e; ++k)
                if (src[k] == '\n')
                    newline();
            i = e;
            continue;
        }

        lineHasCode = true;

        // Raw string literal.
        if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
            std::size_t p = i + 2;
            std::string delim;
            while (p < n && src[p] != '(')
                delim += src[p++];
            std::string close = ")" + delim + "\"";
            std::size_t e = src.find(close, p);
            if (e == std::string::npos)
                e = n;
            else
                e += close.size();
            out.toks.push_back({Tok::str, "", line});
            for (std::size_t k = i; k < e && k < n; ++k)
                if (src[k] == '\n')
                    newline();
            i = e;
            continue;
        }
        // String / char literal.
        if (c == '"' || c == '\'') {
            char q = c;
            std::size_t e = i + 1;
            while (e < n && src[e] != q) {
                if (src[e] == '\\' && e + 1 < n)
                    ++e;
                if (src[e] == '\n')
                    newline();
                ++e;
            }
            out.toks.push_back({Tok::str, "", line});
            i = (e < n) ? e + 1 : n;
            continue;
        }

        if (identStart(c)) {
            std::size_t e = i;
            while (e < n && identChar(src[e]))
                ++e;
            out.toks.push_back({Tok::ident, src.substr(i, e - i), line});
            i = e;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t e = i;
            while (e < n && (identChar(src[e]) || src[e] == '.' ||
                             ((src[e] == '+' || src[e] == '-') && e > i &&
                              (src[e - 1] == 'e' || src[e - 1] == 'E'))))
                ++e;
            out.toks.push_back({Tok::number, src.substr(i, e - i), line});
            i = e;
            continue;
        }

        // Punctuation; combine only "::" and "->" (the two sequences
        // the rules must distinguish from ':' and '>').
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            out.toks.push_back({Tok::punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && src[i + 1] == '>') {
            out.toks.push_back({Tok::punct, "->", line});
            i += 2;
            continue;
        }
        out.toks.push_back({Tok::punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

// ------------------------------------------------------------------
// Token helpers
// ------------------------------------------------------------------

bool
is(const Token &t, const char *text)
{
    return t.text == text;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
pathContains(const std::string &path, const char *sub)
{
    return path.find(sub) != std::string::npos;
}

/**
 * Skip a balanced <...> template argument list starting at the '<'
 * at index @p i. Returns the index one past the matching '>', or
 * @p i itself when the sequence does not look like template
 * arguments (runaway comparison expression).
 */
std::size_t
skipTemplateArgs(const std::vector<Token> &ts, std::size_t i)
{
    if (i >= ts.size() || !is(ts[i], "<"))
        return i;
    int depth = 0;
    std::size_t k = i;
    std::size_t limit = std::min(ts.size(), i + 400);
    for (; k < limit; ++k) {
        const std::string &t = ts[k].text;
        if (t == "<")
            ++depth;
        else if (t == ">") {
            if (--depth == 0)
                return k + 1;
        } else if (t == ";" || t == "{" || t == "}") {
            break; // not a template argument list
        }
    }
    return i;
}

/** The set of associative containers rule D2 inspects. */
bool
isAssocContainer(const std::string &t)
{
    return t == "map" || t == "multimap" || t == "set" || t == "multiset" ||
           t == "unordered_map" || t == "unordered_set" ||
           t == "unordered_multimap" || t == "unordered_multiset";
}

bool
isUnorderedContainer(const std::string &t)
{
    return t == "unordered_map" || t == "unordered_set" ||
           t == "unordered_multimap" || t == "unordered_multiset";
}

// ------------------------------------------------------------------
// Rule engine
// ------------------------------------------------------------------

struct Ctx
{
    const Options &opts;
    const std::set<std::string> &unorderedVars;
    const std::set<std::string> &unorderedFns;
    std::vector<Finding> &findings;
};

const RuleInfo &
ruleInfo(const char *id)
{
    for (const RuleInfo &r : ruleTable())
        if (std::string(id) == r.id)
            return r;
    static RuleInfo unknown{"??", "", ""};
    return unknown;
}

void
report(Ctx &cx, const std::string &file, int line, const char *rule,
       std::string message)
{
    const RuleInfo &info = ruleInfo(rule);
    cx.findings.push_back(
        {file, line, rule, std::move(message), info.hint});
}

/**
 * Collect names bound to unordered containers: type aliases in a
 * first pass, then variables/members whose declared type is an
 * unordered container or one of the aliases. Names are pooled
 * globally so a member declared in a header is recognized in the
 * matching .cc file.
 */
void
collectAliases(const LexedFile &f, std::set<std::string> &aliases)
{
    const auto &ts = f.toks;
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        // using X = [std::]unordered_map<...>;
        if (ts[i].kind == Tok::ident && is(ts[i], "using") &&
            ts[i + 1].kind == Tok::ident && is(ts[i + 2], "=")) {
            std::size_t k = i + 3;
            if (k < ts.size() && is(ts[k], "std") && k + 1 < ts.size() &&
                is(ts[k + 1], "::"))
                k += 2;
            if (k < ts.size() && ts[k].kind == Tok::ident &&
                isUnorderedContainer(ts[k].text))
                aliases.insert(ts[i + 1].text);
        }
    }
}

void
collectUnorderedVars(const LexedFile &f, const std::set<std::string> &aliases,
                     std::set<std::string> &vars)
{
    const auto &ts = f.toks;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Tok::ident)
            continue;
        bool unordered = isUnorderedContainer(ts[i].text) ||
                         aliases.count(ts[i].text) > 0;
        if (!unordered)
            continue;
        // Skip a "using X =" alias definition (collected already).
        if (i >= 2 && is(ts[i - 1], "=") && i >= 3 && is(ts[i - 3], "using"))
            continue;
        std::size_t k = i + 1;
        k = skipTemplateArgs(ts, k);
        // Optional reference/pointer declarators.
        while (k < ts.size() && (is(ts[k], "&") || is(ts[k], "*") ||
                                 is(ts[k], "const")))
            ++k;
        if (k < ts.size() && ts[k].kind == Tok::ident &&
            k + 1 < ts.size() &&
            (is(ts[k + 1], ";") || is(ts[k + 1], "=") ||
             is(ts[k + 1], "{")))
            vars.insert(ts[k].text);
    }
}

/**
 * Collect names of functions declared to *return* an unordered
 * container (or an alias of one): the declarator D1's variable pass
 * deliberately skips (a name followed by '(' is a function, not a
 * variable). Qualified definitions (`unordered_map<...> Foo::bar(`)
 * register under the unqualified name, matching call sites.
 */
void
collectUnorderedFns(const LexedFile &f,
                    const std::set<std::string> &aliases,
                    std::set<std::string> &fns)
{
    const auto &ts = f.toks;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Tok::ident)
            continue;
        bool unordered = isUnorderedContainer(ts[i].text) ||
                         aliases.count(ts[i].text) > 0;
        if (!unordered)
            continue;
        std::size_t k = i + 1;
        k = skipTemplateArgs(ts, k);
        while (k < ts.size() && (is(ts[k], "&") || is(ts[k], "*") ||
                                 is(ts[k], "const")))
            ++k;
        // Declarator: idents separated by "::"; a '(' right after the
        // last ident makes it a function declaration/definition.
        std::string name;
        while (k < ts.size() && ts[k].kind == Tok::ident) {
            name = ts[k].text;
            if (k + 1 < ts.size() && is(ts[k + 1], "::"))
                k += 2;
            else {
                ++k;
                break;
            }
        }
        if (!name.empty() && k < ts.size() && is(ts[k], "("))
            fns.insert(name);
    }
}

/** D1: loops over unordered containers in src/. */
void
ruleD1(Ctx &cx, const LexedFile &f)
{
    if (!startsWith(f.path, "src/"))
        return;
    const auto &ts = f.toks;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        // Range-for: for ( ... : <expr naming an unordered var> )
        if (ts[i].kind == Tok::ident && is(ts[i], "for") &&
            i + 1 < ts.size() && is(ts[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t k = i + 1; k < ts.size(); ++k) {
                if (is(ts[k], "("))
                    ++depth;
                else if (is(ts[k], ")")) {
                    if (--depth == 0) {
                        close = k;
                        break;
                    }
                } else if (is(ts[k], ":") && depth == 1 && colon == 0) {
                    colon = k;
                }
            }
            if (colon && close) {
                for (std::size_t k = colon + 1; k < close; ++k) {
                    if (ts[k].kind == Tok::ident &&
                        cx.unorderedVars.count(ts[k].text) &&
                        !(k + 1 < close && is(ts[k + 1], "("))) {
                        report(cx, f.path, ts[k].line, "D1",
                               "range-for over unordered container '" +
                                   ts[k].text + "'");
                        break;
                    }
                }
            }
        }
        // Iterator loop: <var>.begin() / cbegin() / rbegin().
        if (ts[i].kind == Tok::ident &&
            cx.unorderedVars.count(ts[i].text) && i + 2 < ts.size() &&
            (is(ts[i + 1], ".") || is(ts[i + 1], "->")) &&
            (is(ts[i + 2], "begin") || is(ts[i + 2], "cbegin") ||
             is(ts[i + 2], "rbegin")) &&
            i + 3 < ts.size() && is(ts[i + 3], "(")) {
            report(cx, f.path, ts[i].line, "D1",
                   "iteration over unordered container '" + ts[i].text +
                       "'");
        }
    }
}

/** D2: containers keyed on raw pointers. */
void
ruleD2(Ctx &cx, const LexedFile &f)
{
    const auto &ts = f.toks;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Tok::ident)
            continue;
        bool container = isAssocContainer(ts[i].text);
        bool less = ts[i].text == "less";
        if (!container && !less)
            continue;
        if (i > 0 && (is(ts[i - 1], ".") || is(ts[i - 1], "->")))
            continue; // member access, not a type
        if (i + 1 >= ts.size() || !is(ts[i + 1], "<"))
            continue;
        // First top-level template argument.
        int depth = 0;
        std::size_t argEnd = 0;
        for (std::size_t k = i + 1; k < std::min(ts.size(), i + 400); ++k) {
            const std::string &t = ts[k].text;
            if (t == "<")
                ++depth;
            else if (t == ">") {
                if (--depth == 0) {
                    argEnd = k;
                    break;
                }
            } else if (t == "," && depth == 1) {
                argEnd = k;
                break;
            } else if (t == ";" || t == "{") {
                break;
            }
        }
        if (!argEnd)
            continue;
        // Pointer key: argument's last declarator token is '*'.
        std::size_t last = argEnd - 1;
        while (last > i + 1 && is(ts[last], "const"))
            --last;
        if (is(ts[last], "*")) {
            report(cx, f.path, ts[i].line, "D2",
                   (less ? std::string("std::less")
                         : "std::" + ts[i].text) +
                       " keyed on a raw pointer");
        }
    }
}

/** D3: wall-clock / unseeded randomness. */
void
ruleD3(Ctx &cx, const LexedFile &f)
{
    if (startsWith(f.path, "bench/") ||
        pathContains(f.path, "common/rng."))
        return;
    static const std::set<std::string> calls = {"rand", "srand", "time",
                                               "clock", "timespec_get"};
    static const std::set<std::string> names = {
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock"};
    const auto &ts = f.toks;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Tok::ident)
            continue;
        if (names.count(ts[i].text)) {
            report(cx, f.path, ts[i].line, "D3",
                   "nondeterministic source 'std::" + ts[i].text + "'");
            continue;
        }
        if (!calls.count(ts[i].text))
            continue;
        if (i + 1 >= ts.size() || !is(ts[i + 1], "("))
            continue;
        if (i > 0) {
            const std::string &prev = ts[i - 1].text;
            if (prev == "." || prev == "->")
                continue; // member call, e.g. trace.time(...)
            if (prev == "::" &&
                !(i >= 2 && is(ts[i - 2], "std")))
                continue; // Foo::time(...), not the libc call
        }
        report(cx, f.path, ts[i].line, "D3",
               "wall-clock / unseeded randomness call '" + ts[i].text +
                   "('");
    }
}

/** Scope kinds for D4's brace tracking. */
enum class Scope
{
    ns,    ///< namespace (or file scope)
    cls,   ///< class / struct / union / enum body
    func,  ///< function or lambda body
    other, ///< brace-init and anything else
};

/** D4: mutable namespace-scope / function-static state. */
void
ruleD4(Ctx &cx, const LexedFile &f)
{
    for (const std::string &w : cx.opts.d4Whitelist)
        if (pathContains(f.path, w.c_str()))
            return;

    const auto &ts = f.toks;
    std::vector<Scope> scopes; // implicit file scope == ns
    std::size_t declStart = 0; // window since last ; { }

    auto windowHas = [&](std::size_t from, std::size_t to,
                         const char *text) {
        for (std::size_t k = from; k < to; ++k)
            if (is(ts[k], text))
                return true;
        return false;
    };
    auto inFunc = [&] {
        for (Scope s : scopes)
            if (s == Scope::func)
                return true;
        return false;
    };
    auto atNamespaceScope = [&] {
        for (Scope s : scopes)
            if (s != Scope::ns)
                return false;
        return true;
    };

    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token &t = ts[i];

        if (is(t, "{")) {
            Scope kind = Scope::other;
            if (windowHas(declStart, i, "namespace"))
                kind = Scope::ns;
            else if (windowHas(declStart, i, "class") ||
                     windowHas(declStart, i, "struct") ||
                     windowHas(declStart, i, "union") ||
                     windowHas(declStart, i, "enum"))
                kind = Scope::cls;
            else if (windowHas(declStart, i, "(") ||
                     (i > 0 && is(ts[i - 1], ")")))
                kind = Scope::func;
            else if (inFunc())
                kind = Scope::other;
            else if (windowHas(declStart, i, "="))
                kind = Scope::other; // brace init of a global
            scopes.push_back(kind);
            declStart = i + 1;
            continue;
        }
        if (is(t, "}")) {
            if (!scopes.empty())
                scopes.pop_back();
            declStart = i + 1;
            continue;
        }
        if (is(t, ";")) {
            declStart = i + 1;
            continue;
        }

        bool isStatic = t.kind == Tok::ident && is(t, "static");
        bool isTls = t.kind == Tok::ident && is(t, "thread_local");
        if (!isStatic && !isTls)
            continue;

        // Examine the declaration from here to its first terminator.
        std::size_t end = i + 1;
        bool sawConst = false, sawParen = false;
        for (; end < ts.size(); ++end) {
            const std::string &x = ts[end].text;
            if (x == ";" || x == "=" || x == "{")
                break;
            if (x == "const" || x == "constexpr" || x == "constinit")
                sawConst = true;
            if (x == "(") {
                sawParen = true;
                break;
            }
            if (x == "thread_local" || x == "static")
                continue;
        }
        if (sawConst || sawParen)
            continue; // immutable, or a function declaration

        if (inFunc()) {
            report(cx, f.path, t.line, "D4",
                   isTls ? "function-scope thread_local mutable state"
                         : "function-static mutable state");
        } else if (isTls) {
            report(cx, f.path, t.line, "D4",
                   "namespace-scope thread_local mutable state");
        } else {
            report(cx, f.path, t.line, "D4",
                   atNamespaceScope()
                       ? "namespace-scope mutable static state"
                       : "mutable static data member");
        }
        i = end > i ? end - 1 : i;
    }

    // Namespace-scope non-static mutable globals (e.g. a bare
    // `std::atomic<int> g;` in an anonymous namespace).
    scopes.clear();
    declStart = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token &t = ts[i];
        if (is(t, "{") || is(t, "}") || is(t, ";")) {
            bool close = is(t, "}");
            bool open = is(t, "{");
            bool nsScope = true;
            for (Scope s : scopes)
                if (s != Scope::ns)
                    nsScope = false;
            if ((is(t, ";") || open) && nsScope && i > declStart) {
                // Classify the window [declStart, i).
                bool skip = false, hasConst = false, hasEq = false;
                int idents = 0;
                static const std::set<std::string> skipKw = {
                    "using",   "typedef", "class",    "struct",
                    "enum",    "union",   "template", "friend",
                    "extern",  "static",  "namespace", "static_assert",
                    "thread_local", "operator", "return"};
                for (std::size_t k = declStart; k < i; ++k) {
                    const Token &x = ts[k];
                    if (x.kind == Tok::ident) {
                        if (skipKw.count(x.text)) {
                            skip = true;
                            break;
                        }
                        if (x.text == "const" || x.text == "constexpr" ||
                            x.text == "constinit")
                            hasConst = true;
                        else
                            ++idents;
                    } else if (x.text == "(") {
                        skip = true; // function declaration/definition
                        break;
                    } else if (x.text == "=") {
                        hasEq = true;
                    } else if (x.kind == Tok::include) {
                        skip = true;
                        break;
                    }
                }
                bool braceInit = open && !skip && idents >= 2 && !hasEq;
                bool decl = (is(t, ";") || braceInit) && !skip &&
                            !hasConst && idents >= 2;
                if (decl) {
                    report(cx, f.path, ts[declStart].line, "D4",
                           "namespace-scope mutable state");
                }
            }
            if (open) {
                Scope kind = Scope::other;
                auto has = [&](const char *w) {
                    for (std::size_t k = declStart; k < i; ++k)
                        if (is(ts[k], w))
                            return true;
                    return false;
                };
                if (has("namespace"))
                    kind = Scope::ns;
                else if (has("class") || has("struct") || has("union") ||
                         has("enum"))
                    kind = Scope::cls;
                else if (has("(") || (i > 0 && is(ts[i - 1], ")")))
                    kind = Scope::func;
                scopes.push_back(kind);
            } else if (close && !scopes.empty()) {
                scopes.pop_back();
            }
            declStart = i + 1;
        }
    }
}

/** D5: <cmath> / ceil / floor in src/noc/ or src/gpu/ hot paths. */
void
ruleD5(Ctx &cx, const LexedFile &f)
{
    if (!startsWith(f.path, "src/noc/") && !startsWith(f.path, "src/gpu/"))
        return;
    static const std::set<std::string> fns = {"ceil",  "floor", "round",
                                             "lround", "fmod",  "pow",
                                             "ceilf", "floorf"};
    const auto &ts = f.toks;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token &t = ts[i];
        if (t.kind == Tok::include &&
            (t.text == "cmath" || t.text == "math.h")) {
            report(cx, f.path, t.line, "D5",
                   "#include <" + t.text + "> in a hot-path directory");
            continue;
        }
        if (t.kind != Tok::ident || !fns.count(t.text))
            continue;
        if (i + 1 >= ts.size() || !is(ts[i + 1], "("))
            continue;
        if (i > 0) {
            const std::string &prev = ts[i - 1].text;
            if (prev == "." || prev == "->")
                continue;
            if (prev == "::" && !(i >= 2 && is(ts[i - 2], "std")))
                continue;
        }
        report(cx, f.path, t.line, "D5",
               "floating-point '" + t.text + "(' in a hot path");
    }
}

/** D7: loops over unordered containers *returned by functions* in
 *  src/ (the declarator shape D1's variable pass cannot see). */
void
ruleD7(Ctx &cx, const LexedFile &f)
{
    if (!startsWith(f.path, "src/"))
        return;
    const auto &ts = f.toks;

    auto isFnCall = [&](std::size_t k) {
        return ts[k].kind == Tok::ident &&
               cx.unorderedFns.count(ts[k].text) > 0 &&
               k + 1 < ts.size() && is(ts[k + 1], "(");
    };

    for (std::size_t i = 0; i < ts.size(); ++i) {
        // Range-for: for ( ... : <call returning unordered> ).
        if (ts[i].kind == Tok::ident && is(ts[i], "for") &&
            i + 1 < ts.size() && is(ts[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t k = i + 1; k < ts.size(); ++k) {
                if (is(ts[k], "("))
                    ++depth;
                else if (is(ts[k], ")")) {
                    if (--depth == 0) {
                        close = k;
                        break;
                    }
                } else if (is(ts[k], ":") && depth == 1 && colon == 0) {
                    colon = k;
                }
            }
            if (colon && close) {
                for (std::size_t k = colon + 1; k < close; ++k) {
                    if (isFnCall(k)) {
                        report(cx, f.path, ts[k].line, "D7",
                               "range-for over unordered container "
                               "returned by '" +
                                   ts[k].text + "('");
                        break;
                    }
                }
            }
        }
        // Iterator access on the call result: fn(...).begin().
        if (isFnCall(i)) {
            int depth = 0;
            std::size_t k = i + 1;
            for (; k < ts.size(); ++k) {
                if (is(ts[k], "("))
                    ++depth;
                else if (is(ts[k], ")")) {
                    if (--depth == 0) {
                        ++k;
                        break;
                    }
                } else if (is(ts[k], ";")) {
                    break;
                }
            }
            if (k + 2 < ts.size() &&
                (is(ts[k], ".") || is(ts[k], "->")) &&
                (is(ts[k + 1], "begin") || is(ts[k + 1], "cbegin") ||
                 is(ts[k + 1], "rbegin")) &&
                is(ts[k + 2], "(")) {
                report(cx, f.path, ts[i].line, "D7",
                       "iteration over unordered container returned "
                       "by '" +
                           ts[i].text + "('");
            }
        }
    }
}

/** D6: std::function passed to EventQueue::schedule*. */
void
ruleD6(Ctx &cx, const LexedFile &f)
{
    const auto &ts = f.toks;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != Tok::ident)
            continue;
        const std::string &name = ts[i].text;
        if (name != "schedule" && name != "scheduleAfter" &&
            name != "scheduleAt")
            continue;
        if (!is(ts[i + 1], "("))
            continue;
        int depth = 0;
        for (std::size_t k = i + 1; k < ts.size(); ++k) {
            if (is(ts[k], "("))
                ++depth;
            else if (is(ts[k], ")")) {
                if (--depth == 0)
                    break;
            } else if (ts[k].kind == Tok::ident &&
                       is(ts[k], "function")) {
                report(cx, f.path, ts[k].line, "D6",
                       "std::function built inside an EventQueue "
                       "schedule call");
                break;
            } else if (is(ts[k], ";")) {
                break;
            }
        }
    }
}

/** True for a number token spelling a floating-point literal. */
bool
floatLiteral(const std::string &text)
{
    if (text.size() > 1 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        return false; // hex: 'e'/'E' are digits, '.' cannot appear
    if (text.find('.') != std::string::npos)
        return true;
    return text.find('e') != std::string::npos ||
           text.find('E') != std::string::npos;
}

/** D12: floating-point arithmetic funneled into a cycle-typed value
 *  in a hot-path directory — `static_cast<Cycle>(...)` whose
 *  argument mentions double/float or a floating literal. Cycle math
 *  must go through common/intmath.hh (ceilDiv, SerDivider) so event
 *  times stay exact across platforms and FP-contraction settings. */
void
ruleD12(Ctx &cx, const LexedFile &f)
{
    if (!startsWith(f.path, "src/noc/") &&
        !startsWith(f.path, "src/gpu/") &&
        !startsWith(f.path, "src/switchcompute/"))
        return;
    const auto &ts = f.toks;
    for (std::size_t i = 0; i + 4 < ts.size(); ++i) {
        if (ts[i].kind != Tok::ident || ts[i].text != "static_cast" ||
            !is(ts[i + 1], "<") || ts[i + 2].kind != Tok::ident ||
            ts[i + 2].text != "Cycle" || !is(ts[i + 3], ">") ||
            !is(ts[i + 4], "("))
            continue;
        // Scan the cast argument for floating-point content.
        int depth = 1;
        std::string culprit;
        for (std::size_t j = i + 5; j < ts.size() && depth > 0; ++j) {
            if (is(ts[j], "("))
                ++depth;
            else if (is(ts[j], ")"))
                --depth;
            else if (ts[j].kind == Tok::ident &&
                     (ts[j].text == "double" || ts[j].text == "float"))
                culprit = ts[j].text;
            else if (ts[j].kind == Tok::number &&
                     floatLiteral(ts[j].text) && culprit.empty())
                culprit = ts[j].text;
        }
        if (culprit.empty())
            continue;
        report(cx, f.path, ts[i].line, "D12",
               "static_cast<Cycle>(...) over floating-point '" +
                   culprit + "' in a hot path");
    }
}

/** Drop findings covered by a valid suppression; report bad ones. */
void
applySuppressions(const LexedFile &f, std::vector<Finding> &all)
{
    // Lines that carry code tokens, sorted. An own-line suppression
    // covers the next such line, so a comment block may continue
    // between the allow() and the statement it guards.
    std::vector<int> codeLines;
    codeLines.reserve(f.toks.size());
    for (const Token &t : f.toks)
        codeLines.push_back(t.line);
    std::sort(codeLines.begin(), codeLines.end());
    codeLines.erase(std::unique(codeLines.begin(), codeLines.end()),
                    codeLines.end());
    auto nextCodeLine = [&](int line) {
        auto it = std::upper_bound(codeLines.begin(), codeLines.end(),
                                   line);
        return it == codeLines.end() ? -1 : *it;
    };

    for (const Suppression &s : f.sups) {
        if (!s.valid) {
            all.push_back({f.path, s.line, "X1",
                           "malformed cais-lint suppression: " + s.error,
                           "use: // cais-lint: allow(<rule>) -- "
                           "<justification>"});
            continue;
        }
        all.erase(std::remove_if(all.begin(), all.end(),
                                 [&](const Finding &fd) {
                                     if (fd.file != f.path ||
                                         !s.rules.count(fd.rule))
                                         return false;
                                     if (fd.line == s.line)
                                         return true;
                                     return s.ownLine &&
                                            fd.line ==
                                                nextCodeLine(s.line);
                                 }),
                  all.end());
    }
}

} // namespace

// ------------------------------------------------------------------
// Public API
// ------------------------------------------------------------------

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> table = {
        {"D1",
         "range-for / iterator loop over std::unordered_map or "
         "std::unordered_set in src/",
         "iterate a deterministic structure (std::map, sorted vector, "
         "or an index array) instead"},
        {"D2", "associative container keyed on a raw pointer",
         "key on a stable id (port index, packet id) instead of an "
         "allocation-ordered address"},
        {"D3",
         "wall-clock time or unseeded randomness outside "
         "src/common/rng.* and bench/",
         "draw from cais::Rng seeded via RunConfig::seed"},
        {"D4",
         "mutable namespace-scope or function-static state outside "
         "the whitelist",
         "move the state into a simulation object owned by System / "
         "the run"},
        {"D5", "<cmath> / ceil / floor in src/noc/ or src/gpu/",
         "use common/intmath.hh (ceilDiv, SerDivider) for exact "
         "integer math"},
        {"D6", "std::function used as an EventQueue callback",
         "pass the lambda directly; EventQueue::Callback is "
         "InlineEvent (no heap, no type erasure overhead)"},
        {"D7",
         "iteration over an unordered container returned by a "
         "function in src/ (model code feeding simulation state)",
         "return a std::map / sorted vector, or sort the result "
         "before iterating"},
        {"D12",
         "static_cast<Cycle>(...) over floating-point operands in "
         "src/noc/, src/gpu/ or src/switchcompute/ hot paths",
         "compute cycle values with common/intmath.hh (ceilDiv, "
         "SerDivider) so event times stay exact; truncating a double "
         "ties determinism to FP rounding"},
        {"X1", "malformed cais-lint suppression comment",
         "use: // cais-lint: allow(<rule>) -- <justification>"},
    };
    return table;
}

void
Linter::addSource(std::string path, std::string content)
{
    // Normalize path separators so rules and baselines are
    // platform-independent.
    for (char &c : path)
        if (c == '\\')
            c = '/';
    sources.push_back({std::move(path), std::move(content)});
}

std::vector<Finding>
Linter::run(const Options &opts)
{
    std::vector<LexedFile> lexed;
    lexed.reserve(sources.size());
    for (const Source &s : sources)
        lexed.push_back(lex(s.path, s.content));

    // Cross-file name pools for D1/D7.
    std::set<std::string> aliases, unorderedVars, unorderedFns;
    for (const LexedFile &f : lexed)
        collectAliases(f, aliases);
    for (const LexedFile &f : lexed) {
        collectUnorderedVars(f, aliases, unorderedVars);
        collectUnorderedFns(f, aliases, unorderedFns);
    }

    std::vector<Finding> findings;
    for (std::size_t fi = 0; fi < lexed.size(); ++fi) {
        const LexedFile &f = lexed[fi];
        std::vector<Finding> local;
        Ctx fcx{opts, unorderedVars, unorderedFns, local};
        ruleD1(fcx, f);
        ruleD2(fcx, f);
        ruleD3(fcx, f);
        ruleD4(fcx, f);
        ruleD5(fcx, f);
        ruleD6(fcx, f);
        ruleD7(fcx, f);
        ruleD12(fcx, f);
        applySuppressions(f, local);
        findings.insert(findings.end(),
                        std::make_move_iterator(local.begin()),
                        std::make_move_iterator(local.end()));
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

std::string
writeBaseline(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "# cais-lint baseline: one accepted finding per line,\n"
           "# format rule|file|line. Regenerate with --write-baseline.\n";
    for (const Finding &f : findings)
        out << f.rule << '|' << f.file << '|' << f.line << '\n';
    return out.str();
}

std::string
writeFindingsJson(const std::vector<Finding> &findings,
                  std::size_t files_scanned)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "cais-lint-v1");
    w.field("filesScanned", static_cast<std::uint64_t>(files_scanned));
    w.field("totalFindings",
            static_cast<std::uint64_t>(findings.size()));
    w.key("counts").beginObject();
    for (const RuleInfo &r : ruleTable()) {
        int n = static_cast<int>(std::count_if(
            findings.begin(), findings.end(),
            [&](const Finding &f) { return f.rule == r.id; }));
        w.field(r.id, n);
    }
    w.endObject();
    w.key("findings").beginArray();
    for (const Finding &f : findings) {
        w.beginObject();
        w.field("file", f.file);
        w.field("line", f.line);
        w.field("rule", f.rule);
        w.field("message", f.message);
        w.field("hint", f.hint);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

int
applyBaseline(std::vector<Finding> &findings,
              const std::string &baseline_text)
{
    std::set<std::string> keys;
    std::istringstream in(baseline_text);
    std::string line;
    while (std::getline(in, line)) {
        while (!line.empty() &&
               std::isspace(static_cast<unsigned char>(line.back())))
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        keys.insert(line);
    }
    std::set<std::string> used;
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding &f) {
                                      std::string key =
                                          f.rule + "|" + f.file + "|" +
                                          std::to_string(f.line);
                                      if (!keys.count(key))
                                          return false;
                                      used.insert(key);
                                      return true;
                                  }),
                   findings.end());
    return static_cast<int>(keys.size() - used.size());
}

std::string
formatFinding(const Finding &f)
{
    std::string s = f.file + ":" + std::to_string(f.line) + ": [" +
                    f.rule + "] " + f.message;
    if (!f.hint.empty())
        s += " (fix: " + f.hint + ")";
    return s;
}

} // namespace cais::lint
