#include "calibrate.hh"

#include <algorithm>

#include "trace.hh"

namespace perfbench {

namespace {

constexpr size_t kCodeBytes = size_t(1) << 16;
constexpr size_t kTableWords = size_t(1) << 18; ///< 1 MiB
constexpr int kSteps = 150000;

/** Interpret @p code for kSteps steps: register ALU ops, table loads
 *  and stores, and a data-dependent next-pc. */
__attribute__((noinline)) uint64_t
interpret(const std::vector<uint8_t> &code, std::vector<uint32_t> &table)
{
    uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const uint32_t mask = uint32_t(table.size() - 1);
    size_t pc = 0;
    for (int i = 0; i < kSteps; ++i) {
        const uint8_t op = code[pc];
        const unsigned x = op & 7, y = (op >> 3) & 7;
        switch (op >> 6) {
          case 0:
            r[x] += r[y];
            break;
          case 1:
            r[x] ^= r[y] * 0x9e3779b97f4a7c15ull;
            break;
          case 2:
            r[x] += table[(r[y] >> 3) & mask];
            break;
          default:
            table[(r[x] >> 5) & mask] = uint32_t(r[y]);
            break;
        }
        pc += (r[x] & 1) ? 1 : 2;
        if (pc >= code.size())
            pc -= code.size();
    }
    return r[0] ^ r[1] ^ r[2] ^ r[3] ^ r[4] ^ r[5] ^ r[6] ^ r[7];
}

} // namespace

HostReference::HostReference() : code_(kCodeBytes), table_(kTableWords)
{
    // Fixed contents, independent of the workload seed: every run times
    // the same work.
    uint64_t z = 7;
    for (uint8_t &c : code_) {
        z = z * 6364136223846793005ull + 1;
        c = uint8_t(z >> 56);
    }
    for (size_t i = 0; i < table_.size(); ++i)
        table_[i] = uint32_t(i * 2654435761u);
}

void
HostReference::sample()
{
    // Each call starts from the same table, so every sample does the
    // same work.
    std::vector<uint32_t> table = table_;
    const auto t0 = Clock::now();
    sink_ += interpret(code_, table);
    seconds_.push_back(secondsSince(t0));
}

double
HostReference::medianSeconds() const
{
    if (seconds_.empty())
        return kNominalSeconds;
    std::vector<double> v = seconds_;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + long(mid), v.end());
    return v[mid];
}

double
HostReference::slowdown() const
{
    return medianSeconds() / kNominalSeconds;
}

} // namespace perfbench
