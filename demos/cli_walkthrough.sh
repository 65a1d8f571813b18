#!/bin/sh
# The same workflow through the installed command. Every run is a CSV on
# stdout (or --out); exit codes: 0 pass, 1 verification failure, 2 bad input.
set -e

echo "== closed-form level tables =="
ptspectra spectrum --family eckart
ptspectra spectrum --family rpt
ptspectra spectrum --family hulthen

echo
echo "== verify the eckart family on its default grid =="
ptspectra verify --family eckart

echo
echo "== verify the hulthen family on an arch of angle pi/5 =="
ptspectra verify --family hulthen --epsilon pi/5

echo
echo "== sample the arch contour and the hulthen potential along it =="
ptspectra sample --family hulthen --epsilon pi/6 --xmin -4 --xmax 4 --n 9

echo
echo "== eigenfunction columns: rpt ground state of the (-,-) family =="
ptspectra sample --family rpt --N 0 --sigma -1 --tau -1 --xmin -3 --xmax 3 --n 7

echo
echo "== rebuild the hulthen potential by the change of variables =="
ptspectra transform --family hulthen --n 5
