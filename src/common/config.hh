/**
 * @file
 * Minimal key=value parameter store used by example and bench
 * binaries to override simulation defaults from the command line.
 */

#ifndef CAIS_COMMON_CONFIG_HH
#define CAIS_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cais
{

/** Parsed "key=value" command-line parameters with typed getters. */
class Params
{
  public:
    Params() = default;

    /** Parse argv entries of the form key=value; others are ignored. */
    static Params fromArgs(int argc, char **argv);

    /** Parse one "key=value" (or "--key=value") token; returns false
     *  if malformed. */
    bool parseToken(const std::string &token);

    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Typed getters: @p def when @p key is absent; a value that does
     *  not parse as the type exits 2 with a message. */
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** Keys present, in insertion order. */
    const std::vector<std::string> &keys() const { return order; }

  private:
    std::map<std::string, std::string> kv;
    std::vector<std::string> order;
};

} // namespace cais

#endif // CAIS_COMMON_CONFIG_HH
