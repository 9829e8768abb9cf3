// Unit tests for blocks, grid addressing, boundary folding and the BlockLab.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid.h"
#include "grid/lab.h"
#include "lab_oracle.h"
#include "omp_threads.h"

// Linux 5.14's populate advice, for headers older than that kernel.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace mpcf {
namespace {

Cell tagged_cell(int ix, int iy, int iz) {
  Cell c;
  c.rho = static_cast<Real>(1 + ix);
  c.ru = static_cast<Real>(10 + iy);
  c.rv = static_cast<Real>(100 + iz);
  c.rw = static_cast<Real>(ix - iy);
  c.E = static_cast<Real>(ix + iy + iz);
  c.G = static_cast<Real>(2.5);
  c.P = static_cast<Real>(3.5);
  return c;
}

void fill_tagged(Grid& g) {
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) g.cell(ix, iy, iz) = tagged_cell(ix, iy, iz);
}

TEST(Grid, GeometryBasics) {
  Grid g(2, 3, 4, 8, 2.0);
  EXPECT_EQ(g.block_count(), 24);
  EXPECT_EQ(g.cells_x(), 16);
  EXPECT_EQ(g.cells_y(), 24);
  EXPECT_EQ(g.cells_z(), 32);
  EXPECT_DOUBLE_EQ(g.h(), 2.0 / 16);
  EXPECT_DOUBLE_EQ(g.cell_center(0), 0.5 * g.h());
}

TEST(Grid, CellAddressingCrossesBlocks) {
  Grid g(2, 2, 2, 8);
  fill_tagged(g);
  for (int iz : {0, 7, 8, 15})
    for (int iy : {0, 3, 9})
      for (int ix : {0, 7, 8, 15}) {
        const Cell c = g.cell(ix, iy, iz);
        EXPECT_EQ(c.rho, tagged_cell(ix, iy, iz).rho);
        EXPECT_EQ(c.E, tagged_cell(ix, iy, iz).E);
      }
}

TEST(Grid, BlocksAreZeroInitialized) {
  Grid g(1, 1, 1, 8);
  EXPECT_EQ(g.cell(3, 4, 5).rho, 0.0f);
  EXPECT_EQ(g.block(0).tmp(1, 2, 3).E, 0.0f);
}

TEST(Grid, FreshStorageIsAllPositiveZeroBitsInAlignedDisjointSpans) {
  struct Shape {
    int bx, by, bz, bs;
  };
  // bs 1 and 5: cell spans that are not a multiple of 64 bytes.
  for (const Shape& s : {Shape{1, 1, 1, 1}, Shape{2, 3, 1, 5}, Shape{2, 2, 2, 8},
                         Shape{1, 1, 2, 16}}) {
    SCOPED_TRACE(testing::Message() << "bs " << s.bs);
    Grid g(s.bx, s.by, s.bz, s.bs);
    const std::size_t bytes = g.block(0).cells() * sizeof(Cell);
    const std::vector<unsigned char> zero(bytes, 0);
    for (int b = 0; b < g.block_count(); ++b) {
      Block& blk = g.block(b);
      for (const Cell* span : {blk.data(), blk.tmp_data()}) {
        // mpcf-lint: allow(reinterpret-cast): pointer->integer conversion is the alignment assertion itself
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span) % 64, 0u) << "block " << b;
        EXPECT_EQ(std::memcmp(span, zero.data(), bytes), 0) << "block " << b;
      }
    }
    // Fill every span with its own byte, then read them all back: a span
    // overlapping another would have lost its pattern.
    for (int b = 0; b < g.block_count(); ++b) {
      std::memset(static_cast<void*>(g.block(b).data()), 2 * b + 1, bytes);
      std::memset(static_cast<void*>(g.block(b).tmp_data()), 2 * b + 2, bytes);
    }
    for (int b = 0; b < g.block_count(); ++b) {
      const std::vector<unsigned char> d(bytes, static_cast<unsigned char>(2 * b + 1));
      const std::vector<unsigned char> t(bytes, static_cast<unsigned char>(2 * b + 2));
      EXPECT_EQ(std::memcmp(g.block(b).data(), d.data(), bytes), 0) << "block " << b;
      EXPECT_EQ(std::memcmp(g.block(b).tmp_data(), t.data(), bytes), 0) << "block " << b;
    }
  }
}

TEST(Grid, BlockViewsStayValidAcrossMoves) {
  Grid a(2, 2, 2, 8);
  fill_tagged(a);
  a.block(5).tmp(1, 2, 3).E = 42.0f;
  std::vector<const Cell*> data;
  for (int b = 0; b < a.block_count(); ++b) data.push_back(a.block(b).data());
  Block& held = a.block(5);

  Grid moved(std::move(a));
  Grid assigned(1, 1, 1, 4);
  assigned = std::move(moved);  // releases the 1-block grid's storage
  ASSERT_EQ(assigned.block_count(), 8);
  ASSERT_EQ(assigned.block_size(), 8);
  for (int b = 0; b < assigned.block_count(); ++b)
    EXPECT_EQ(assigned.block(b).data(), data[b]) << "block " << b;
  EXPECT_EQ(&held, &assigned.block(5));
  EXPECT_EQ(held.tmp(1, 2, 3).E, 42.0f);
  for (int iz = 0; iz < 16; ++iz)
    for (int iy = 0; iy < 16; ++iy)
      for (int ix = 0; ix < 16; ++ix)
        ASSERT_EQ(assigned.cell(ix, iy, iz).E, tagged_cell(ix, iy, iz).E);
}

/// Whether this kernel populates a range on request (Linux 5.14 and
/// later), tried on one page of a scratch mapping.
bool kernel_populates() {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* p = mmap(nullptr, page, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  const bool ok = madvise(p, page, MADV_POPULATE_WRITE) == 0;
  (void)munmap(p, page);
  return ok;
}

TEST(Grid, StorageIsResidentZeroAndHugePageAlignedWhenConstructed) {
  if (!kernel_populates()) {
    utsname u{};
    (void)uname(&u);
    GTEST_SKIP() << "kernel " << u.sysname << " " << u.release
                 << " refuses MADV_POPULATE_WRITE: grid pages fault at first touch";
  }
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  struct Shape {
    int bx, by, bz, bs;
  };
  // One 8^3 block (28 KiB, one chunk); cloud_job's 12^3 blocks of 8^3
  // (47.25 MiB: 23.6 chunks, the last one partial); 2^3 blocks of 32^3
  // (exactly seven 2 MiB chunks, more than the workers).
  for (const int threads : {1, 4})
    for (const Shape& s : {Shape{1, 1, 1, 8}, Shape{12, 12, 12, 8}, Shape{2, 2, 2, 32}}) {
      SCOPED_TRACE(testing::Message() << threads << " workers, " << s.bx << "x" << s.by
                                      << "x" << s.bz << " blocks of " << s.bs);
      const test::Threads scope(threads);
      Grid g(s.bx, s.by, s.bz, s.bs);
      Block& last = g.block(g.block_count() - 1);
      auto* const first = static_cast<unsigned char*>(static_cast<void*>(g.block(0).data()));
      auto* const end =
          static_cast<unsigned char*>(static_cast<void*>(last.tmp_data() + last.cells()));
      const auto bytes = static_cast<std::size_t>(end - first);
      // Residency first: reading a page would fault it in.
      std::vector<unsigned char> resident((bytes + page - 1) / page);
      ASSERT_EQ(mincore(first, bytes, resident.data()), 0);
      const auto missing = std::count_if(resident.begin(), resident.end(),
                                         [](unsigned char r) { return (r & 1) == 0; });
      EXPECT_EQ(missing, 0) << "of " << resident.size() << " pages";
      if (bytes >= kHugePage) {
        EXPECT_EQ(std::bit_cast<std::uintptr_t>(first) % kHugePage, 0u);
      }
      EXPECT_TRUE(std::all_of(first, end, [](unsigned char b) { return b == 0; }));
    }
}

TEST(Grid, StorageBeyondTheAddressSpaceThrowsBadAllocNamingItsBytes) {
  // One block of (2^19)^3 cells: 2^58 * sizeof(Cell) bytes, more than any
  // address space, so the mapping is refused without touching memory.
  const int bs = 1 << 19;
  const std::size_t bytes = (std::size_t{2} << 57) * sizeof(Cell);
  try {
    const Grid g(1, 1, 1, bs);
    FAIL() << "a grid of " << bytes << " bytes was built";
  } catch (const std::bad_alloc& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(bytes) + " bytes"), std::string::npos)
        << e.what();
  }
}

TEST(Boundary, PeriodicFold) {
  const auto bc = BoundaryConditions::all(BCType::kPeriodic);
  EXPECT_EQ(fold_index(-1, 16, bc, 0).i, 15);
  EXPECT_EQ(fold_index(-3, 16, bc, 0).i, 13);
  EXPECT_EQ(fold_index(16, 16, bc, 0).i, 0);
  EXPECT_EQ(fold_index(18, 16, bc, 0).i, 2);
  EXPECT_EQ(fold_index(-1, 16, bc, 0).mom_sign, 1.0f);
}

TEST(Boundary, AbsorbingClamps) {
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  EXPECT_EQ(fold_index(-2, 16, bc, 1).i, 0);
  EXPECT_EQ(fold_index(17, 16, bc, 1).i, 15);
  EXPECT_EQ(fold_index(17, 16, bc, 1).mom_sign, 1.0f);
}

TEST(Boundary, WallMirrorsAndFlips) {
  const auto bc = BoundaryConditions::all(BCType::kWall);
  EXPECT_EQ(fold_index(-1, 16, bc, 2).i, 0);
  EXPECT_EQ(fold_index(-3, 16, bc, 2).i, 2);
  EXPECT_EQ(fold_index(16, 16, bc, 2).i, 15);
  EXPECT_EQ(fold_index(18, 16, bc, 2).i, 13);
  EXPECT_EQ(fold_index(-1, 16, bc, 2).mom_sign, -1.0f);
  EXPECT_EQ(fold_index(16, 16, bc, 2).mom_sign, -1.0f);
}

TEST(Boundary, InteriorIsIdentity) {
  const auto bc = BoundaryConditions::all(BCType::kWall);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(fold_index(i, 16, bc, 0).i, i);
    EXPECT_EQ(fold_index(i, 16, bc, 0).mom_sign, 1.0f);
  }
}

TEST(Boundary, MixedFaces) {
  BoundaryConditions bc;
  bc.face[0] = {BCType::kWall, BCType::kAbsorbing};
  EXPECT_EQ(fold_index(-1, 8, bc, 0).mom_sign, -1.0f);
  EXPECT_EQ(fold_index(8, 8, bc, 0).mom_sign, 1.0f);
  EXPECT_EQ(fold_index(8, 8, bc, 0).i, 7);
}

TEST(GridFolded, WallFlipsOnlyNormalMomentum) {
  Grid g(1, 1, 1, 8);
  fill_tagged(g);
  BoundaryConditions bc;
  bc.face[1] = {BCType::kWall, BCType::kWall};
  const Cell ghost = g.cell_folded(3, -2, 4, bc);
  const Cell mirror = g.cell(3, 1, 4);
  EXPECT_EQ(ghost.ru, mirror.ru);
  EXPECT_EQ(ghost.rv, -mirror.rv);
  EXPECT_EQ(ghost.rw, mirror.rw);
  EXPECT_EQ(ghost.rho, mirror.rho);
}

TEST(BlockLab, InteriorMatchesBlock) {
  Grid g(2, 2, 2, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  lab.load(g, 1, 0, 1, BoundaryConditions::all(BCType::kAbsorbing));
  for (int iz = 0; iz < 8; ++iz)
    for (int iy = 0; iy < 8; ++iy)
      for (int ix = 0; ix < 8; ++ix) {
        const Cell ref = tagged_cell(8 + ix, iy, 8 + iz);
        for (int q = 0; q < kNumQuantities; ++q) EXPECT_EQ(lab(q, ix, iy, iz), ref.q(q));
      }
}

TEST(BlockLab, GhostsComeFromNeighbourBlocks) {
  Grid g(2, 1, 1, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  lab.load(g, 0, 0, 0, BoundaryConditions::all(BCType::kAbsorbing));
  // Ghosts to the right of block 0 live in block 1.
  for (int k = 0; k < kGhosts; ++k) {
    const Cell ref = tagged_cell(8 + k, 2, 3);
    EXPECT_EQ(lab(Q_RHO, 8 + k, 2, 3), ref.rho);
    EXPECT_EQ(lab(Q_E, 8 + k, 2, 3), ref.E);
  }
}

TEST(BlockLab, PeriodicGhostsWrap) {
  Grid g(2, 1, 1, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  lab.load(g, 0, 0, 0, BoundaryConditions::all(BCType::kPeriodic));
  // Ghost at ix=-1 must equal the cell at global x=15.
  const Cell ref = tagged_cell(15, 4, 4);
  EXPECT_EQ(lab(Q_RHO, -1, 4, 4), ref.rho);
  EXPECT_EQ(lab(Q_RU, -1, 4, 4), ref.ru);
}

TEST(BlockLab, CustomFetcherIsUsedForGhostsOnly) {
  Grid g(1, 1, 1, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  int fetches = 0;
  lab_oracle::load_per_cell(lab, g, 0, 0, 0, 1, [&](int, int, int) {
    ++fetches;
    return Cell{};
  });
  const int n = 8 + 2 * kGhosts;
  EXPECT_EQ(fetches, n * n * n - 8 * 8 * 8);
  EXPECT_EQ(lab(Q_RHO, -1, 0, 0), 0.0f);       // from fetcher
  EXPECT_EQ(lab(Q_RHO, 0, 0, 0), 1.0f);        // from block
}

}  // namespace
}  // namespace mpcf
