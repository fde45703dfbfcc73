#include "util/options.hh"

#include <cstdlib>

#include "util/error.hh"
#include "util/logging.hh"

namespace ipref
{

Options::Options(int argc, char **argv,
                 const std::map<std::string, std::string> &known)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value = "1"; // a bare flag is boolean true
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (!known.empty() && !known.count(name))
            ipref_raise(ConfigError, "unknown option --%s", name.c_str());
        values_[name] = value;
    }
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
Options::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

std::int64_t
Options::getInt(const std::string &name, std::int64_t def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoll(it->second.c_str(),
                                                    nullptr, 0);
}

std::uint64_t
Options::getUint(const std::string &name, std::uint64_t def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoull(it->second.c_str(),
                                                     nullptr, 0);
}

double
Options::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtod(it->second.c_str(),
                                                   nullptr);
}

bool
Options::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return it->second != "0" && it->second != "false" &&
           it->second != "no";
}

} // namespace ipref
