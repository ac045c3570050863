/**
 * @file
 * paper_record DIR: write every figure, table, ablation and extension
 * of the reproduction into DIR (see paper_record.cpp).
 */

#include <iostream>

#include "paper_record.hpp"

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: paper_record DIR\n";
        return 2;
    }
    return asd::record::writeRecord(asd::record::paperFigures(), argv[1]);
}
