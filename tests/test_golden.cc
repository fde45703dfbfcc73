/**
 * @file
 * Golden results lock: every SimResults field, on a small matrix of
 * runs, must stay bit-identical across commits. Each cell of the
 * matrix — every registered scheme token (plus discontinuity with the
 * L2 bypass) x every workload preset x {functional, timing} x {1, 4}
 * cores, at an instruction scale just large enough that the
 * time-sliced single-core Mixed run switches workloads — is reduced
 * to a 64-bit FNV-1a hash of its hex-exact resultsToJson()
 * serialization and compared with tests/golden/results.digest, one
 * line per cell:
 *
 *   <token>[+bypass] <preset> <functional|timing> <cores> <hash>
 *
 * A change that moves any digest must say why in CHANGES.md and
 * regenerate the file with `test_golden --update`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "prefetch/scheme_registry.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"

using namespace ipref;

namespace
{

constexpr double kInstrScale = 0.05;

bool g_update = false;

struct Cell
{
    std::string key; //!< every digest-line field but the hash
    RunSpec spec;
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<Cell>
goldenCells()
{
    const std::vector<std::pair<std::string, std::vector<WorkloadKind>>>
        presets = {
            {"DB", {WorkloadKind::DB}},
            {"TPCW", {WorkloadKind::TPCW}},
            {"JAPP", {WorkloadKind::JAPP}},
            {"WEB", {WorkloadKind::WEB}},
            {"Mixed",
             {WorkloadKind::DB, WorkloadKind::TPCW, WorkloadKind::JAPP,
              WorkloadKind::WEB}},
        };
    std::vector<std::pair<std::string, bool>> schemes;
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all())
        schemes.push_back({d->token, false});
    schemes.push_back({"discontinuity", true});

    std::vector<Cell> cells;
    for (const auto &[token, bypass] : schemes)
        for (const auto &[preset, kinds] : presets)
            for (bool functional : {true, false})
                for (bool cmp : {false, true}) {
                    Cell c;
                    c.key = token + (bypass ? "+bypass" : "") + " " +
                            preset + " " +
                            (functional ? "functional" : "timing") +
                            " " + (cmp ? "4" : "1");
                    c.spec = RunSpec::builder()
                                 .scheme(token)
                                 .bypassL2(bypass)
                                 .workloads(kinds)
                                 .functional(functional)
                                 .cmp(cmp)
                                 .instrScale(kInstrScale)
                                 .build();
                    cells.push_back(std::move(c));
                }
    return cells;
}

/** key -> hash, in file order (std::map keeps lookups simple). */
std::map<std::string, std::string>
parseDigest(const std::string &path, std::vector<std::string> &order)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto sp = line.rfind(' ');
        std::string key = line.substr(0, sp);
        order.push_back(key);
        out[key] = line.substr(sp + 1);
    }
    return out;
}

} // namespace

TEST(Golden, ResultsMatchDigest)
{
    const std::vector<Cell> cells = goldenCells();
    std::vector<RunSpec> specs;
    for (const Cell &c : cells)
        specs.push_back(c.spec);
    const std::vector<SimResults> results = runSpecs(specs, 0);

    std::ostringstream text;
    std::vector<std::string> hashes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a(resultsToJson(results[i]))));
        hashes.push_back(hex);
        text << cells[i].key << " " << hex << "\n";
    }

    if (g_update) {
        std::ofstream out(IPREF_GOLDEN_DIGEST, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << IPREF_GOLDEN_DIGEST;
        out << text.str();
        std::printf("wrote %zu cells to %s\n", cells.size(),
                    IPREF_GOLDEN_DIGEST);
        return;
    }

    std::vector<std::string> order;
    const std::map<std::string, std::string> golden =
        parseDigest(IPREF_GOLDEN_DIGEST, order);
    ASSERT_FALSE(golden.empty())
        << "missing or empty " << IPREF_GOLDEN_DIGEST
        << " (regenerate with test_golden --update)";
    EXPECT_EQ(order.size(), cells.size())
        << "the matrix changed shape (a scheme was added or removed); "
           "regenerate with test_golden --update";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto it = golden.find(cells[i].key);
        if (it == golden.end()) {
            ADD_FAILURE() << "cell '" << cells[i].key
                          << "' is not in the digest";
            continue;
        }
        EXPECT_EQ(it->second, hashes[i])
            << "SimResults changed on cell '" << cells[i].key << "'";
    }
}

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--update") == 0)
            g_update = true;
    return RUN_ALL_TESTS();
}
